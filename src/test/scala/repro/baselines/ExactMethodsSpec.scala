package repro.baselines

import repro.{Oracle, SparkSpec, TestFixtures, VecRow}
import repro.core.Distance

/** LinearScan (ground truth) and iDistance (the paper's exact comparator):
  * both must return the exact kNN.
  */
class ExactMethodsSpec extends SparkSpec {

  lazy val spec = TestFixtures.tiny
  lazy val local = TestFixtures.tinyLocal
  lazy val queries = TestFixtures.tinyQueries
  lazy val truth = TestFixtures.tinyTruth

  // --- LinearScan ---------------------------------------------------------

  lazy val linear = LinearScan.build(spark, spec, spec.data(spark), local)

  test("LinearScan driver index equals distributed ground truth") {
    for (qi <- 0 until 10) {
      assert(linear.search(queries(qi).vec, 10).toSeq == truth(qi).take(10).toSeq)
    }
  }

  test("LinearScan kNN matches DuckDB SQL on low-dimensional data (oracle)") {
    import spark.implicits._
    // a 4-dim dataset small enough to express the kNN in SQL
    val rng = new scala.util.Random(5)
    val pts = Array.tabulate(300)(i => (i.toLong,
      rng.nextDouble(), rng.nextDouble(), rng.nextDouble(), rng.nextDouble()))
    val q = (rng.nextDouble(), rng.nextDouble(), rng.nextDouble(), rng.nextDouble())
    val data = pts.map { case (id, a, b, c, d) =>
      VecRow(id, Array(a.toFloat, b.toFloat, c.toFloat, d.toFloat)) }
    val gt = LinearScan.groundTruth(spark, spark.createDataset(data.toSeq),
      Array(VecRow(-1L, Array(q._1.toFloat, q._2.toFloat, q._3.toFloat, q._4.toFloat))), 10)
    val gotDf = gt(0).toSeq.map(_._1.toString).toDF("id")
    val ptsDf = data.toSeq.map(r =>
      (r.id.toString, r.vec(0).toDouble, r.vec(1).toDouble, r.vec(2).toDouble, r.vec(3).toDouble))
      .toDF("id", "d0", "d1", "d2", "d3")
    Oracle.assertEquivalent(gotDf,
      s"""SELECT id FROM p
         |ORDER BY (CAST(d0 AS DOUBLE)-(${q._1}))*(CAST(d0 AS DOUBLE)-(${q._1}))
         |       + (CAST(d1 AS DOUBLE)-(${q._2}))*(CAST(d1 AS DOUBLE)-(${q._2}))
         |       + (CAST(d2 AS DOUBLE)-(${q._3}))*(CAST(d2 AS DOUBLE)-(${q._3}))
         |       + (CAST(d3 AS DOUBLE)-(${q._4}))*(CAST(d3 AS DOUBLE)-(${q._4})),
         |         CAST(id AS BIGINT)
         |LIMIT 10""".stripMargin,
      "p" -> ptsDf)
  }

  test("ground truth distances are non-decreasing") {
    truth.foreach { t =>
      for (i <- 1 until t.length) assert(t(i)._2 >= t(i - 1)._2)
    }
  }

  test("ground truth is exactly k long when n >= k") {
    truth.foreach(t => assert(t.length == 100))
  }

  // --- iDistance ----------------------------------------------------------

  lazy val idist = IDistance.buildIndex(spark, spec.data(spark), local)

  test("iDistance returns the exact kNN (it is an exact method)") {
    for (qi <- queries.indices.take(20)) {
      val got = idist.search(queries(qi).vec, 10)
      assert(got.map(_._1).toSeq == truth(qi).take(10).map(_._1).toSeq,
             s"iDistance inexact for query $qi")
    }
  }

  test("iDistance distances equal true distances") {
    val got = idist.search(queries(0).vec, 10)
    got.foreach { case (id, d) =>
      assert(math.abs(d - Distance.l2(local(id.toInt), queries(0).vec)) < 1e-9)
    }
  }

  test("iDistance with k = 1 finds the nearest neighbor") {
    for (qi <- 0 until 10) {
      assert(idist.search(queries(qi).vec, 1).head._1 == truth(qi).head._1)
    }
  }

  test("iDistance on a database point returns the point itself first") {
    val got = idist.search(local(77), 5)
    assert(got.head == ((77L, 0.0)))
  }

  test("iDistance index size is small (keys + pointers, Sec. 5.4.3)") {
    assert(idist.indexBytes < local.length.toLong * spec.dim * 4) // smaller than raw data
  }

  test("LinearScan and iDistance answers equal their pinned digests (k = 1, 10, 100)") {
    val got = Seq(linear, idist)
      .map(idx => idx.name -> TestFixtures.answerDigest(Seq(1, 10, 100))(idx.search)).toMap
    assert(got == Map(
      "linear"    -> "c882f49a8e5f220b9454f2c8ec15cd1801ad035e0ab96e4d777182c91e9a8c57",
      "idistance" -> "c882f49a8e5f220b9454f2c8ec15cd1801ad035e0ab96e4d777182c91e9a8c57"))
  }

  test("iDistance equals LinearScan when the k-th distance is tied (every object duplicated)") {
    import spark.implicits._
    val twice = local ++ local // ids i and i + n hold the same vector
    val ds = spark.createDataset(twice.toSeq.zipWithIndex.map { case (v, i) => VecRow(i.toLong, v) })
    val exact = LinearScan.build(spark, spec, ds, twice)
    val idx = IDistance.buildIndex(spark, ds, twice)
    var tied = 0
    for (k <- Seq(9, 11); qr <- queries) {
      val want = exact.search(qr.vec, k + 1)
      if (want(k - 1)._2 == want(k)._2) tied += 1
      assert(idx.search(qr.vec, k).toSeq == want.take(k).toSeq, s"query ${qr.id}, k = $k")
    }
    assert(tied > 0, "no query had a tied k-th distance")
  }

  test("iDistance k > n returns all points") {
    val small = Array(Array(0f, 0f), Array(1f, 0f), Array(0f, 1f))
    import spark.implicits._
    val ds = spark.createDataset(small.toSeq.zipWithIndex.map { case (v, i) => VecRow(i.toLong, v) })
    val idx = IDistance.buildIndex(spark, ds, small, nPivots = 2)
    assert(idx.search(Array(0f, 0f), 10).length == 3)
  }
}
