package repro.bench

import repro.{SparkSpec, VecRow}
import repro.core._

/** Table 2 + Fig. 3: the paper's running example — 8 four-dimensional
  * objects, dimensions split into partitions {1,2} and {3,4}, one Hilbert
  * key per partition, RDB-trees whose leaves store distances to the
  * reference objects O3 and O7.
  *
  * Our curve (Skilling's) has a different orientation from the paper's
  * figure, so the printed key *ranks* are our labelling of the same
  * structure; all structural facts the example illustrates are asserted.
  */
class Table2Bench extends SparkSpec {

  private val objects: Array[(String, Array[Float])] = Array(
    "O1" -> Array(0.20f, 0.74f, 0.68f, 0.73f),
    "O2" -> Array(0.84f, 0.34f, 0.49f, 0.81f),
    "O3" -> Array(0.97f, 0.64f, 0.32f, 0.93f),
    "O4" -> Array(0.42f, 0.86f, 0.12f, 0.82f),
    "O5" -> Array(0.62f, 0.09f, 0.56f, 0.07f),
    "O6" -> Array(0.84f, 0.59f, 0.49f, 0.73f),
    "O7" -> Array(0.05f, 0.43f, 0.52f, 0.82f),
    "O8" -> Array(0.40f, 0.24f, 0.10f, 0.64f))
  private val query = Array(0.18f, 0.87f, 0.76f, 0.23f)
  private val omega = 3 // 8x8 grid as in Fig. 3

  private def rankKeys(from: Int): Map[String, Int] = {
    val h = Hilbert(2, omega)
    val keyed = objects.map { case (n, v) => n -> BigInt(1, h.encodeVector(v, from, 0.0, 1.0)) }
    val sorted = keyed.sortBy(_._2).map(_._1)
    // dense ranks 1..8 as in the paper's HK columns
    sorted.zipWithIndex.map { case (n, i) => n -> (i + 1) }.toMap
  }

  test("Table 2: print the running example with both Hilbert keys") {
    val hk1 = rankKeys(0); val hk2 = rankKeys(2)
    println("== Table 2 (running example; HK ranks under our curve orientation) ==")
    println(f"${"Object"}%-7s ${"Dim1"}%5s ${"Dim2"}%5s ${"Dim3"}%5s ${"Dim4"}%5s ${"HK1"}%4s ${"HK2"}%4s")
    objects.foreach { case (n, v) =>
      println(f"$n%-7s ${v(0)}%5.2f ${v(1)}%5.2f ${v(2)}%5.2f ${v(3)}%5.2f ${hk1(n)}%4d ${hk2(n)}%4d")
    }
    assert(hk1.values.toSet == (1 to 8).toSet, "partition 1 keys must be distinct ranks")
    assert(hk2.values.toSet == (1 to 8).toSet, "partition 2 keys must be distinct ranks")
  }

  test("the boundary effect: some spatially close pair is key-adjacent in only one partition") {
    // The text's observation generalized: nearby objects need a close key in
    // only ONE partition to become candidates (Sec. 3.1).
    val hk1 = rankKeys(0); val hk2 = rankKeys(2)
    def adjacent(hk: Map[String, Int], a: String, b: String) = math.abs(hk(a) - hk(b)) <= 1
    // the paper's own illustration pair: O8 and O4 are close in space
    // (d = 0.65, among the smallest pairwise distances) yet far on one curve
    // and adjacent on the other
    val pairs = for {
      i <- objects.indices; j <- i + 1 until objects.length
      a = objects(i)._1; b = objects(j)._1
      if Distance.l2(objects(i)._2, objects(j)._2) < 0.7
    } yield (a, b)
    assert(pairs.nonEmpty)
    val rescued = pairs.filter { case (a, b) =>
      adjacent(hk1, a, b) ^ adjacent(hk2, a, b)
    }
    println(s"near pairs rescued by exactly one curve: ${rescued.mkString(", ")}")
    assert(rescued.nonEmpty,
           "multiple curves should rescue at least one near pair from the boundary effect")
  }

  test("Fig. 3c: RDB-tree leaves store distances to the reference objects O3, O7") {
    import spark.implicits._
    val data = spark.createDataset(objects.toSeq.zipWithIndex.map { case ((_, v), i) => VecRow(i.toLong, v) })
    val refs = Array(objects(2)._2, objects(6)._2) // O3, O7
    val entries = RdbTree.build(spark, data, refs, dim = 4, tau = 2, omega = omega,
                                lo = 0.0, hi = 1.0).collect()
    assert(entries.map(_.id).sorted.toSeq == (0L until 8L)) // one entry per object
    val offs = RdbTree.keyOffsets(dim = 4, tau = 2, omega = omega)
    assert(entries.forall(_.keys.length == offs(2))) // holding both trees' keys
    println("== Fig. 3c: RDB-tree leaf contents (tree, key rank order) ==")
    for (t <- 0 to 1) {
      val es = entries.sortBy(e => BigInt(1, e.keys.slice(offs(t), offs(t + 1))))
      println(s" RDB-tree ${t + 1}: " + es.map(e =>
        f"${objects(e.id.toInt)._1}(d3=${e.refdists(0)}%.2f,d7=${e.refdists(1)}%.2f)").mkString(" "))
      es.foreach { e =>
        assert(math.abs(e.refdists(0) - Distance.l2(objects(e.id.toInt)._2, refs(0))) < 1e-6)
        assert(math.abs(e.refdists(1) - Distance.l2(objects(e.id.toInt)._2, refs(1))) < 1e-6)
      }
    }
  }

  test("querying the example with alpha=2 per tree unions candidates from both trees (Sec. 4.1)") {
    import spark.implicits._
    val data = spark.createDataset(objects.toSeq.zipWithIndex.map { case ((_, v), i) => VecRow(i.toLong, v) })
    val local = objects.map(_._2)
    val cfg = HdIndexConfig(dim = 4, tau = 2, omega = omega, lo = 0.0, hi = 1.0, m = 2)
    val model = HdIndex.build(spark, data, local, cfg)
    val p = QueryParams(k = 3, alpha = 2, beta = 2, gamma = 2)
    val (ans, stats) = HdQuery.searchLocal(model, query, p, id => local(id.toInt))
    assert(ans.length == 3)
    assert(stats.kappa >= p.gamma && stats.kappa <= 2 * p.gamma)
    // exact 1-NN of Q is O1 (closest in full space); with alpha=2 windows it
    // must appear among candidates of at least one tree and so rank first
    val exact = local.indices.minBy(i => Distance.l2(local(i), query))
    println(s"Query Q -> answers: ${ans.map(a => objects(a._1.toInt)._1).mkString(", ")} " +
            s"(exact NN: ${objects(exact)._1})")
  }
}
