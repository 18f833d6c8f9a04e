package repro.core

import org.apache.spark.sql.Dataset
import repro.{SparkSpec, TestFixtures, VecRow, VectorData}
import repro.baselines.{AnnMethod, C2Lsh, IDistance, Pq, Qalsh, Srs}

class RdbTreeSpec extends SparkSpec {

  // --- Eq. 4 / Table 3 ----------------------------------------------------

  test("Table 3: SIFT leaf order is 63 (eta=16, omega=8, m=10)") {
    assert(RdbTree.leafOrder(16, 8, 10) == 63)
  }
  test("Table 3: Yorck leaf order is 36 (eta=16, omega=32)") {
    assert(RdbTree.leafOrder(16, 32, 10) == 36)
  }
  test("Table 3: SUN leaf order is 13 (eta=64, omega=32)") {
    assert(RdbTree.leafOrder(64, 32, 10) == 13)
  }
  test("Table 3: Audio leaf order is 28 (eta=24, omega=32)") {
    assert(RdbTree.leafOrder(24, 32, 10) == 28)
  }
  test("Table 3: Enron leaf order is 18 (eta=86, omega=16)") {
    assert(RdbTree.leafOrder(86, 16, 10) == 18)
  }
  test("Table 3: Glove leaf order is 40 (eta=13, omega=32)") {
    assert(RdbTree.leafOrder(13, 32, 10) == 40)
  }
  test("leaf order satisfies Eq. 4 tightly (Ω fits, Ω+1 does not)") {
    for ((eta, om) <- Seq((16, 8), (16, 32), (64, 32), (24, 32), (86, 16), (13, 32))) {
      val entry = eta * om / 8.0 + 4 * 10 + 8
      val o = RdbTree.leafOrder(eta, om, 10)
      assert(entry * o + 17 <= 4096)
      assert(entry * (o + 1) + 17 > 4096)
    }
  }
  test("leaf order grows when references shrink (m < nu scaling argument, Sec. 3.2)") {
    assert(RdbTree.leafOrder(16, 8, 5) > RdbTree.leafOrder(16, 8, 10))
    // storing the full 128-dim descriptor instead would fit only ~7 entries:
    val bPlusLeaf = math.floor((4096 - 17) / (16 * 1.0 + 4 * 128 + 8)).toInt
    assert(RdbTree.leafOrder(16, 8, 10) > 8 * bPlusLeaf)
  }
  test("page too small for one entry is rejected") {
    assertThrows[IllegalArgumentException](RdbTree.leafOrder(2000, 32, 10, pageSize = 64))
  }

  test("internal fanout and height are sane") {
    val theta = RdbTree.internalFanout(16, 8)
    assert(theta == math.floor((4096 - 17) / 24.0).toInt)
    assert(RdbTree.height(1, 16, 8, 10) == 1)
    assert(RdbTree.height(63, 16, 8, 10) == 1)
    assert(RdbTree.height(64, 16, 8, 10) == 2)
    assert(RdbTree.height(1000000, 16, 8, 10) >= 3)
  }

  // --- dimension partitioning --------------------------------------------

  test("partitions cover all dims exactly once, contiguously") {
    for ((dim, tau) <- Seq((128, 8), (512, 16), (100, 8), (1369, 16), (32, 4))) {
      val ps = RdbTree.partitions(dim, tau)
      assert(ps.map(_._2).sum == dim)
      var expect = 0
      ps.foreach { case (from, width) => assert(from == expect); expect += width }
    }
  }
  test("Glove partitioning: 7 curves of 13 dims + 1 of 9") {
    val ps = RdbTree.partitions(100, 8)
    assert(ps.length == 8)
    assert(ps.take(7).forall(_._2 == 13))
    assert(ps.last._2 == 9)
  }
  test("bad tau rejected") {
    assertThrows[IllegalArgumentException](RdbTree.partitions(10, 0))
    assertThrows[IllegalArgumentException](RdbTree.partitions(10, 11))
  }

  test("HdIndexConfig rejects an empty or non-finite value domain") {
    val cfg = HdIndexConfig(dim = 8, tau = 2, omega = 8, lo = 0.0, hi = 1.0)
    for ((lo, hi) <- Seq((1.0, 1.0), (2.0, 1.0), (Double.NaN, 1.0), (0.0, Double.NaN),
                         (Double.NegativeInfinity, 1.0), (0.0, Double.PositiveInfinity)))
      assertThrows[IllegalArgumentException](cfg.copy(lo = lo, hi = hi))
  }

  test("HdIndexConfig rejects a tau that leaves the last dimension slice empty") {
    // (5, 4): slices of 2 dims cover 5 in 3; (10, 6): slices of 2 cover 10 in 5
    for ((dim, tau, eta) <- Seq((5, 4, 2), (10, 6, 2), (7, 6, 2))) {
      val e = intercept[IllegalArgumentException](
        HdIndexConfig(dim = dim, tau = tau, omega = 8, lo = 0.0, hi = 1.0))
      assert(e.getMessage.contains(s"dim=$dim in tau=$tau slices of eta=$eta dimensions"), e.getMessage)
      assertThrows[IllegalArgumentException](RdbTree.partitions(dim, tau))
    }
    // every registry spec has tau non-empty slices, Glove's 7 x 13 + 9 too
    for (spec <- VectorData.all :+ VectorData.tiny) {
      val cfg = HdIndex.configFor(spec)
      assert(RdbTree.partitions(cfg.dim, cfg.tau).length == cfg.tau, spec.name)
    }
  }

  // --- distributed build --------------------------------------------------

  lazy val spec: VectorData.Spec = TestFixtures.tiny
  lazy val model: HdIndexModel = TestFixtures.tinyModel

  test("a tree inserts a new id after every equal key, at the first greater key") {
    val curve = Hilbert(1, 8)
    def key(v: Long) = curve.encode(Array(v))
    val tree = LocalTree(0, 0, curve, Array(1L, 3L, 3L, 5L, 7L).map(key), Array(0, 1, 2, 3, 4))
    for ((v, at) <- Seq(0L -> 0, 3L -> 3, 4L -> 3, 7L -> 5, 9L -> 5)) {
      val got = tree.inserted(key(v), 5)
      assert(got.ids.indexOf(5) == at && got.keys(at).sameElements(key(v)), s"key $v")
      assert(got.ids.filter(_ != 5).sameElements(tree.ids), s"key $v")
      assert(got.keys.indices.tail.forall(i => Hilbert.compareKeys(got.keys(i - 1), got.keys(i)) <= 0), s"key $v")
    }
    assert(tree.ids.length == 5) // copy-on-write
  }

  test("build produces tau trees with n entries each") {
    assert(model.trees.length == spec.tau)
    model.trees.foreach(t => assert(t.keys.length == spec.n && t.ids.length == spec.n))
  }

  test("every tree contains every object id exactly once") {
    model.trees.foreach { t =>
      assert(t.ids.sorted.toSeq == (0 until spec.n))
    }
  }

  test("tree entries are sorted by (hilbert key, id)") {
    model.trees.foreach { t =>
      for (i <- 1 until t.keys.length) {
        val c = Hilbert.compareKeys(t.keys(i - 1), t.keys(i))
        assert(c < 0 || (c == 0 && t.ids(i - 1) < t.ids(i)))
      }
    }
  }

  test("stored keys equal recomputed Hilbert keys of the raw vectors") {
    val local = TestFixtures.tinyLocal
    val rng = new scala.util.Random(0)
    model.trees.foreach { t =>
      val h = Hilbert(t.width, model.cfg.omega)
      for (_ <- 1 to 50) {
        val i = rng.nextInt(t.ids.length)
        val expect = h.encodeVector(local(t.ids(i)), t.fromDim, model.cfg.lo, model.cfg.hi)
        assert(t.keys(i).toSeq == expect.toSeq)
      }
    }
  }

  test("stored reference distances match direct computation") {
    val local = TestFixtures.tinyLocal
    for (id <- 0 until spec.n by 97) {
      val expect = model.refs.map(r => Distance.l2(local(id), r).toFloat)
      assert(model.refdistsById(id).toSeq == expect.toSeq)
    }
  }

  test("reference matrix is symmetric with zero diagonal") {
    val m = model.refMatrix
    for (i <- m.indices; j <- m.indices) {
      assert(math.abs(m(i)(j) - m(j)(i)) < 1e-9)
      if (i == j) assert(m(i)(j) == 0.0)
    }
  }

  test("trees do not depend on the input's partitioning or order") {
    import spark.implicits._
    val data = spec.data(spark)
    val inputs = Seq("as is" -> data, "1 partition" -> data.repartition(1),
                     "8 partitions" -> data.repartition(8), "reversed ids" -> data.orderBy($"id".desc))
    for ((name, ds) <- inputs) {
      val m = HdIndex.build(spark, ds, TestFixtures.tinyLocal, model.cfg)
      assert(m.trees.length == model.trees.length, name)
      m.trees.zip(model.trees).foreach { case (a, b) =>
        assert(a.keys.corresponds(b.keys)((x, y) => java.util.Arrays.equals(x, y)),
               s"$name: keys of tree ${a.treeId} differ")
        assert(a.ids.sameElements(b.ids), s"$name: ids of tree ${a.treeId} differ")
      }
      assert(m.refdistsById.corresponds(model.refdistsById)((x, y) => java.util.Arrays.equals(x, y)),
             s"$name: reference distances differ")
    }
  }

  /** Tree (from, width)'s (keys, ids) computed on the driver alone: every
    * vector's key, sorted by (key, id).
    */
  private def referenceTree(local: Array[Array[Float]], cfg: HdIndexConfig,
                            from: Int, width: Int): (Array[Array[Byte]], Array[Int]) = {
    val h = Hilbert(width, cfg.omega)
    val sorted = local.indices.map(i => (h.encodeVector(local(i), from, cfg.lo, cfg.hi), i))
      .sortWith { case ((ka, ia), (kb, ib)) =>
        val c = Hilbert.compareKeys(ka, kb)
        c < 0 || (c == 0 && ia < ib)
      }
    (sorted.map(_._1).toArray, sorted.map(_._2).toArray)
  }

  private def assertReferenceOrder(m: HdIndexModel, local: Array[Array[Float]], name: String): Unit =
    m.trees.foreach { t =>
      val (keys, ids) = referenceTree(local, m.cfg, t.fromDim, t.width)
      assert(t.keys.corresponds(keys)((x, y) => java.util.Arrays.equals(x, y)),
             s"$name: keys of tree ${t.treeId} differ from the reference")
      assert(t.ids.sameElements(ids), s"$name: ids of tree ${t.treeId} differ from the reference")
    }

  test("each tree equals a driver-side (key, id) sort of every vector's key") {
    assertReferenceOrder(model, TestFixtures.tinyLocal, "tiny")
  }

  test("equal keys are ordered by id, whatever the input order") {
    import spark.implicits._
    // every vector twice: each key occurs at least twice in every tree
    val local = TestFixtures.tinyLocal ++ TestFixtures.tinyLocal
    val data = spark.createDataset(local.indices.reverse.map(i => VecRow(i.toLong, local(i)))).repartition(4)
    val m = HdIndex.build(spark, data, local, model.cfg)
    assert(m.trees.forall(t => t.keys.indices.tail.exists(i => java.util.Arrays.equals(t.keys(i - 1), t.keys(i)))))
    assertReferenceOrder(m, local, "tiny twice")
  }

  /** Each build that places objects by id fails on `data` with `message`:
    * HD-Index's, and the five baselines' that place theirs through
    * `Common.collectById`.
    */
  private def assertBuildsFail(data: Dataset[VecRow], message: String): Unit = {
    val local = TestFixtures.tinyLocal
    val builds = ("hdindex" -> (() => HdIndex.build(spark, data, local, model.cfg): Any)) +:
      Seq[AnnMethod](C2Lsh, Qalsh, Srs, IDistance, Pq).map(m =>
        m.getClass.getSimpleName -> (() => m.build(spark, spec, data, local): Any))
    for ((name, build) <- builds)
      withClue(s"$name: ")(assert(intercept[IllegalArgumentException](build()).getMessage == message))
  }

  test("an input missing an id fails, naming the id") {
    import spark.implicits._
    assertBuildsFail(spec.data(spark).filter($"id" =!= 5L), "requirement failed: object id 5 is missing")
  }

  test("an input repeating an id fails, naming the id") {
    import spark.implicits._
    val data = spec.data(spark).map(r => if (r.id == 5L) r.copy(id = 6L) else r)
    assertBuildsFail(data, "requirement failed: object id 6 is repeated")
  }

  test("an input with an id out of [0, n) fails, naming the id") {
    import spark.implicits._
    val n = spec.n.toLong
    for (bad <- Seq(-1L, n, 1L << 31)) {
      val data = spec.data(spark).map(r => if (r.id == 5L) r.copy(id = bad) else r)
      assertBuildsFail(data, s"requirement failed: object id $bad is out of range [0, $n)")
    }
  }

  test("a localData that differs from data fails, naming the first differing id") {
    val local = TestFixtures.tinyLocal.clone()
    for (id <- Seq(1999, 42)) {
      local(id) = local(id).clone()
      local(id)(3) = Math.nextUp(local(id)(3))
    }
    val e = intercept[IllegalArgumentException](HdIndex.build(spark, spec.data(spark), local, model.cfg))
    assert(e.getMessage == "requirement failed: object 42 of data differs from localData")
  }

  test("m = 0 builds the same trees with no references, and a negative m is rejected") {
    assertThrows[IllegalArgumentException](model.cfg.copy(m = -1))
    val curves = TestFixtures.tinyCurves
    assert(curves.refIds.isEmpty && curves.refs.isEmpty && curves.refMatrix.isEmpty)
    assert(curves.refdistsById.length == spec.n && curves.refdistsById.forall(_.isEmpty))
    curves.trees.zip(model.trees).foreach { case (a, b) =>
      assert(a.keys.corresponds(b.keys)((x, y) => java.util.Arrays.equals(x, y)))
      assert(a.ids.sameElements(b.ids))
    }
  }

  test("index size estimate is linear-ish in n (Sec. 3.5.2)") {
    val bytesPerObj = model.indexBytes.toDouble / model.n
    // tau trees, entry ~ (eta*omega/8 + 4m + 8) bytes + page slack
    assert(bytesPerObj > 0)
    assert(bytesPerObj < 10000, s"index unexpectedly large: $bytesPerObj B/object")
  }

  test("tiny's index bytes and query leaf pages keep their page-model values") {
    // each of the 4 trees: η = 8, ω = 8, m = 10, so entries of 8 + 40 + 8
    // bytes, Ω = ⌊4079 / 56⌋ = 72 and θ = ⌊4079 / 16⌋ = 254; 2000 entries
    // fill 28 leaves under one root: height 2, 29 pages of 4096 bytes
    assert(model.indexBytes == 4L * 29 * 4096)
    // per query and tree: the height plus ⌈α / Ω⌉ leaves, over 20 queries
    for ((p, perTree) <- Seq(QueryParams.recommended(10, 512) -> (2 + 8), QueryParams(10, 256, 256, 64) -> (2 + 4))) {
      val pages = TestFixtures.tinyQueries.map(q => HdQuery.searchLocal(model, q.vec, p, TestFixtures.getVec)._2.leafPages)
      assert(pages.sum == 20L * 4 * perTree, p)
    }
  }
}
