package repro.core

import repro.{SparkSpec, TestFixtures, VectorData}

/** Sec. 3.6 — handling updates: insertions without reference recomputation,
  * deletions by marking.
  */
class UpdateSpec extends SparkSpec {

  private def freshModel(): HdIndexModel = {
    // a small private model so mutations don't leak into shared fixtures
    val spec  = VectorData.tiny.copy(name = "upd", n = 500, nQueries = 5, seed = 123)
    HdIndex.build(spark, spec.data(spark), spec.localData, HdIndex.configFor(spec))
  }
  private val spec = VectorData.tiny.copy(name = "upd", n = 500, nQueries = 5, seed = 123)
  private lazy val local = spec.localData

  test("insert grows every tree by one, keeping entries sorted") {
    val m0 = freshModel()
    val v  = spec.point(9999L).clone()
    val m1 = HdIndex.insert(m0, m0.n, v)
    assert(m1.n == m0.n + 1)
    m1.trees.foreach { tr =>
      assert(tr.keys.length == m1.n)
      for (i <- 1 until tr.keys.length) {
        val c = Hilbert.compareKeys(tr.keys(i - 1), tr.keys(i))
        assert(c < 0 || (c == 0 && tr.ids(i - 1) < tr.ids(i)))
      }
      assert(tr.ids.sorted.toSeq == (0 until m1.n))
    }
  }

  test("inserted copies of an object go after its equal key, in (key, id) order") {
    val m0 = freshModel()
    val v  = local(42).clone()
    // two copies: the second's key equals two keys already in each tree
    val m2 = HdIndex.insert(HdIndex.insert(m0, m0.n, v), m0.n + 1, v)
    m2.trees.zip(m0.trees).foreach { case (tr, tr0) =>
      for (i <- 1 until tr.keys.length) {
        val c = Hilbert.compareKeys(tr.keys(i - 1), tr.keys(i))
        assert(c < 0 || (c == 0 && tr.ids(i - 1) < tr.ids(i)), s"tree ${tr.treeId}, entry $i")
      }
      val key = tr.keys(tr.ids.indexOf(42))
      val equal = tr.keys.indices.filter(i => Hilbert.compareKeys(tr.keys(i), key) == 0)
      assert(equal.map(tr.ids(_)).takeRight(2) == Seq(m0.n, m0.n + 1), s"tree ${tr.treeId}")
      assert(tr.ids.filter(_ < m0.n).sameElements(tr0.ids), s"tree ${tr.treeId}")
    }
  }

  test("inserted object's reference distances are stored correctly") {
    val m0 = freshModel()
    val v  = spec.point(4242L)
    val m1 = HdIndex.insert(m0, m0.n, v)
    val expect = m1.refs.map(r => Distance.l2(v, r).toFloat)
    assert(m1.refdistsById(m0.n).toSeq == expect.toSeq)
  }

  test("the reference set is NOT recomputed on insert (Sec. 3.6)") {
    val m0 = freshModel()
    val m1 = HdIndex.insert(m0, m0.n, spec.point(777L))
    assert(m1.refIds.toSeq == m0.refIds.toSeq)
    assert(m1.refs eq m0.refs)
  }

  test("an inserted point is retrievable as its own nearest neighbor") {
    val m0 = freshModel()
    val v  = spec.point(31337L)
    val m1 = HdIndex.insert(m0, m0.n, v)
    val getVec: Long => Array[Float] = id => if (id == m0.n) v else local(id.toInt)
    val (ans, _) = HdQuery.searchLocal(m1, v, QueryParams.recommended(5, 128), getVec)
    assert(ans.head._1 == m0.n)
    assert(ans.head._2 == 0.0)
  }

  test("several inserts compose") {
    var m = freshModel()
    val extra = (0 until 5).map(i => spec.point(50000L + i))
    extra.zipWithIndex.foreach { case (v, i) => m = HdIndex.insert(m, 500 + i, v) }
    assert(m.n == 505)
    m.trees.foreach(tr => assert(tr.ids.length == 505))
  }

  test("insert with a non-dense id is rejected") {
    val m0 = freshModel()
    assertThrows[IllegalArgumentException](HdIndex.insert(m0, m0.n + 5, spec.point(1L)))
  }

  test("insert rejects a NaN, Inf or wrong-dimension vector") {
    val m0 = freshModel()
    for (bad <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)) {
      val v = spec.point(1L).clone()
      v(spec.dim / 2) = bad
      val e = intercept[IllegalArgumentException](HdIndex.insert(m0, m0.n, v))
      assert(e.getMessage.contains(s"inserted vector coordinate ${spec.dim / 2} is $bad"), e.getMessage)
    }
    for (len <- Seq(spec.dim - 1, spec.dim + 1))
      assertThrows[IllegalArgumentException](HdIndex.insert(m0, m0.n, new Array[Float](len)))
  }

  test("markDeleted rejects an id outside [0, n)") {
    val m = freshModel()
    for (id <- Seq(-1L, m.n, m.n + 100))
      assertThrows[IllegalArgumentException](HdIndex.markDeleted(m, id))
    assert(m.deleted.isEmpty)
  }

  test("a marked-deleted object is never returned; other answers unaffected") {
    val m = freshModel()
    val q = local(17) // query an existing point
    val p = QueryParams.recommended(5, 128)
    val (before, _) = HdQuery.searchLocal(m, q, p, id => local(id.toInt))
    assert(before.head._1 == 17L)
    HdIndex.markDeleted(m, 17L)
    val (after, _) = HdQuery.searchLocal(m, q, p, id => local(id.toInt))
    assert(!after.map(_._1).contains(17L))
    // the rest of the answer list shifts up by one
    assert(after.map(_._1).toSeq == before.map(_._1).filterNot(_ == 17L).take(5).toSeq :+ after.last._1 ||
           after.map(_._1).take(4).toSeq == before.map(_._1).filterNot(_ == 17L).take(4).toSeq)
  }

  test("deletion marks survive subsequent inserts") {
    val m0 = freshModel()
    HdIndex.markDeleted(m0, 3L)
    val m1 = HdIndex.insert(m0, m0.n, spec.point(88L))
    assert(m1.deleted.contains(3L))
  }
}
