package repro.baselines

import repro.{SparkSpec, TestFixtures}
import repro.core.Metrics

/** Behavioural tests for the approximate baselines: well-formed output,
  * determinism, and recall clearly above random on clustered data.
  */
class ApproxMethodsSpec extends SparkSpec {

  lazy val spec    = TestFixtures.tiny
  lazy val local   = TestFixtures.tinyLocal
  lazy val queries = TestFixtures.tinyQueries
  lazy val truth   = TestFixtures.tinyTruth

  private def wellFormed(ans: Array[(Long, Double)], k: Int): Unit = {
    assert(ans.length == k)
    assert(ans.map(_._1).distinct.length == k, "duplicate ids in answer")
    for (i <- 1 until ans.length)
      assert(ans(i)._2 >= ans(i - 1)._2, "distances must be non-decreasing")
    ans.foreach { case (id, _) => assert(id >= 0 && id < spec.n) }
  }

  private def recall10(idx: AnnIndex): Double =
    queries.indices.take(20).map { qi =>
      Metrics.recallAtK(truth(qi).map(_._1).toSeq, idx.search(queries(qi).vec, 10).map(_._1).toSeq, 10)
    }.sum / 20

  private def map10(idx: AnnIndex): Double =
    Metrics.mapAtK(queries.indices.take(20).map { qi =>
      (truth(qi).map(_._1).toSeq, idx.search(queries(qi).vec, 10).map(_._1).toSeq)
    }, 10)

  // Random answers on n=2000 would have recall ~ 10/2000 = 0.005.

  lazy val multicurves = Multicurves.build(spark, spec, spec.data(spark), local)
  lazy val srs   = Srs.build(spark, spec, spec.data(spark), local)
  lazy val c2lsh = C2Lsh.build(spark, spec, spec.data(spark), local)
  lazy val qalsh = Qalsh.build(spark, spec, spec.data(spark), local)
  lazy val opq   = Pq.build(spark, spec, spec.data(spark), local)
  lazy val hnsw  = Hnsw.build(spark, spec, spec.data(spark), local)

  test("Multicurves returns well-formed answers") {
    wellFormed(multicurves.search(queries(0).vec, 10), 10)
  }
  test("Multicurves recall is high (space-filling curves with full vectors)") {
    assert(recall10(multicurves) > 0.6, s"recall = ${recall10(multicurves)}")
  }
  test("Multicurves index is much larger than HD-Index (stores vectors in leaves)") {
    assert(multicurves.indexBytes > TestFixtures.tinyModel.indexBytes)
  }

  test("SRS returns well-formed answers") {
    wellFormed(srs.search(queries(0).vec, 10), 10)
  }
  test("SRS recall beats random but is limited by its examined budget") {
    val r = recall10(srs)
    assert(r > 0.05, s"recall = $r")
  }
  test("SRS index is tiny (6 projections per point)") {
    assert(srs.indexBytes < spec.n.toLong * spec.dim * 4 / 2)
  }

  test("C2LSH returns well-formed answers") {
    wellFormed(c2lsh.search(queries(0).vec, 10), 10)
  }
  test("C2LSH recall beats random") {
    val r = recall10(c2lsh)
    assert(r > 0.05, s"recall = $r")
  }

  test("QALSH returns well-formed answers") {
    wellFormed(qalsh.search(queries(0).vec, 10), 10)
  }
  test("QALSH recall beats random") {
    val r = recall10(qalsh)
    assert(r > 0.05, s"recall = $r")
  }
  test("QALSH quality is at least C2LSH quality (query-aware buckets, Sec. 2.2.4)") {
    assert(map10(qalsh) >= map10(c2lsh) - 0.05)
  }

  test("OPQ returns well-formed answers") {
    wellFormed(opq.search(queries(0).vec, 10), 10)
  }
  test("OPQ with M=2 has poor exact-rank quality (the Table 5 behaviour)") {
    // codes are coarse: some recall but clearly below exact methods
    val m = map10(opq)
    assert(m < 0.9, s"MAP = $m unexpectedly high for 2 sub-quantizers")
  }
  test("OPQ index is by far the smallest (M bytes + codebooks)") {
    assert(opq.indexBytes < srs.indexBytes)
  }

  test("HNSW returns well-formed answers") {
    wellFormed(hnsw.search(queries(0).vec, 10), 10)
  }
  test("HNSW recall is high (graph methods are the quality leaders)") {
    val r = recall10(hnsw)
    assert(r > 0.8, s"recall = $r")
  }
  test("HNSW memory footprint includes the raw vectors (memory-bound method)") {
    assert(hnsw.indexBytes >= spec.n.toLong * spec.dim * 4)
  }

  test("all methods are deterministic given the built index") {
    Seq[AnnIndex](multicurves, srs, c2lsh, qalsh, opq, hnsw).foreach { idx =>
      val a = idx.search(queries(7).vec, 10).toSeq
      val b = idx.search(queries(7).vec, 10).toSeq
      assert(a == b, s"${idx.name} not deterministic")
    }
  }

  test("Multicurves, SRS, C2LSH, QALSH, OPQ and HNSW answers equal their pinned digests (k = 1, 10, 100)") {
    val got = Seq[AnnIndex](multicurves, srs, c2lsh, qalsh, opq, hnsw)
      .map(idx => idx.name -> TestFixtures.answerDigest(Seq(1, 10, 100))(idx.search)).toMap
    assert(got == Map(
      "multicurves" -> "24070467ee137b7fb7b6c27cc53839592a614e1f8e7958cf086afaea51ea6309",
      "srs"         -> "e66bc994a1769cbdfe285623518a26799f9246518b21a3e7d388cdb54e5bf505",
      "c2lsh"       -> "28b1690c15af1602edfcd3c269007215beb8e71d7e0285754262aafeb304db44",
      "qalsh"       -> "836cdd97552034c4472a28ec139b64c717a08b457d6d0f11ab9375c61f23919d",
      "opq"         -> "ef6453457bcba233d8ccca180ddf91ab024bd64646805fd2ecb453550cba39b1",
      "hnsw"        -> "9b80b00fbc4df21bcec2358938c434e5471ff4c2ba15ebfe0a060b5a1e3c6b92"))
  }

  test("C2LSH, QALSH, SRS, iDistance and OPQ answers do not depend on the input's partitioning or row order") {
    val data = spec.data(spark)
    assert(data.rdd.getNumPartitions == 1)
    val reversed = data.orderBy(org.apache.spark.sql.functions.col("id").desc)
    assert(reversed.rdd.map(_.id).collect().toSeq == (spec.n - 1L to 0L by -1L))
    // on 2 partitions, merged per-partition covariance sums give OPQ other answers on tiny
    val inputs = Seq("2 partitions" -> data.repartition(2), "8 partitions" -> data.repartition(8),
                     "reversed ids" -> reversed)
    val digest = (idx: AnnIndex) => TestFixtures.answerDigest(Seq(1, 10, 100))(idx.search)
    Seq[AnnMethod](C2Lsh, Qalsh, Srs, IDistance, Pq).foreach { m =>
      val idx = m.build(spark, spec, data, local)
      val one = digest(idx)
      inputs.foreach { case (what, in) =>
        assert(digest(m.build(spark, spec, in, local)) == one, s"${idx.name} on $what")
      }
    }
  }

  test("method names are distinct and stable") {
    val names = Seq(multicurves, srs, c2lsh, qalsh, opq, hnsw).map(_.name)
    assert(names == Seq("multicurves", "srs", "c2lsh", "qalsh", "opq", "hnsw"))
  }
}
