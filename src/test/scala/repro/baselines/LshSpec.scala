package repro.baselines

import repro.{SparkSpec, VecRow}
import repro.core.Distance

/** Mechanism-level tests for the two collision-counting LSH baselines. */
class LshSpec extends SparkSpec {

  lazy val data: Array[Array[Float]] = {
    val rng = new scala.util.Random(21)
    val centers = Array.fill(15)(Array.fill(16)(rng.nextFloat() * 100))
    Array.tabulate(1500)(i => centers(i % 15).map(x => x + rng.nextGaussian().toFloat))
  }
  lazy val ds = {
    import spark.implicits._
    spark.createDataset(data.toSeq.zipWithIndex.map { case (v, i) => VecRow(i.toLong, v) })
  }

  lazy val c2 = C2Lsh.buildIndex(spark, ds, data)
  lazy val qa = Qalsh.buildIndex(spark, ds, data)

  test("C2LSH: querying a database point retrieves it (full collision at level 0)") {
    for (i <- 0 until 20 by 3) {
      val got = c2.search(data(i), 5).map(_._1)
      assert(got.contains(i.toLong), s"point $i not retrieved by its own query")
      assert(got.head == i.toLong, "identical point must rank first")
    }
  }

  test("QALSH: querying a database point retrieves it") {
    for (i <- 0 until 20 by 3) {
      assert(qa.search(data(i), 5).map(_._1).head == i.toLong)
    }
  }

  test("C2LSH candidates favour the query's cluster") {
    // the nearest cluster sibling should usually be found
    val rng = new scala.util.Random(5)
    var hit = 0
    for (_ <- 1 to 20) {
      val i = rng.nextInt(data.length)
      val got = c2.search(data(i), 20).map(_._1).toSet
      val sameCluster = (0 until 1500).filter(j => j != i && j % 15 == i % 15)
      if (got.exists(g => sameCluster.contains(g.toInt))) hit += 1
    }
    assert(hit >= 15, s"cluster siblings found only $hit/20 times")
  }

  test("QALSH ranks points by continuous qualifying level, better resolution than C2LSH") {
    // both return sane distances
    val q = data(3).map(x => x + 0.01f)
    val (gc, gq) = (c2.search(q, 10), qa.search(q, 10))
    assert(gc.head._2 < 5 && gq.head._2 < 5)
  }

  test("both LSH variants examine at most betaN + k candidates (bounded work)") {
    // search returns k results from a candidate pool of size <= 0.01n + k
    assert(c2.search(data(0), 10).length == 10)
    assert(qa.search(data(0), 10).length == 10)
  }

  test("distances reported by LSH methods are exact for the returned ids") {
    val q = data(42).map(_ + 0.5f)
    for ((id, d) <- c2.search(q, 10) ++ qa.search(q, 10)) {
      assert(math.abs(d - Distance.l2(data(id.toInt), q)) < 1e-9)
    }
  }

  test("C2LSH build is deterministic in the seed") {
    val a = C2Lsh.buildIndex(spark, ds, data).search(data(0), 5).toSeq
    val b = C2Lsh.buildIndex(spark, ds, data).search(data(0), 5).toSeq
    assert(a == b)
  }

  test("SRS projections are 2-stable (distance preserved in expectation)") {
    val rng = new scala.util.Random(17)
    val projections = Common.gaussianProjections(64, 200, seed = 4)
    val a = Array.fill(64)(rng.nextFloat() * 10)
    val b = Array.fill(64)(rng.nextFloat() * 10)
    val trueD = Distance.l2(a, b)
    val projD2 = projections.map(p => math.pow(Common.dot(a, p) - Common.dot(b, p), 2)).sum / 200
    // E[(p·a - p·b)^2] = ||a-b||^2 for unit gaussian projections
    assert(math.abs(math.sqrt(projD2) - trueD) / trueD < 0.25)
  }

  test("dot product helper") {
    assert(Common.dot(Array(1f, 2f, 3f), Array(4f, 5f, 6f)) == 32.0)
  }
}
