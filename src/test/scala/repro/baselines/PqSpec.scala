package repro.baselines

import repro.{SparkSpec, VecRow}

class PqSpec extends SparkSpec {

  test("subRanges split the space into M near-equal contiguous slices") {
    assert(Pq.subRanges(128, 2).toSeq == Seq((0, 64), (64, 128)))
    assert(Pq.subRanges(100, 2).toSeq == Seq((0, 50), (50, 100)))
    assert(Pq.subRanges(5, 2).toSeq == Seq((0, 3), (3, 5)))
  }

  test("rotate with the identity matrix is a no-op") {
    val id = Array.tabulate(4, 4)((i, j) => if (i == j) 1f else 0f)
    val v = Array(1f, 2f, 3f, 4f)
    assert(Pq.rotate(id, v).toSeq == v.toSeq)
  }

  test("rotate with a permutation matrix permutes") {
    val p = Array(Array(0f, 1f), Array(1f, 0f))
    assert(Pq.rotate(p, Array(3f, 7f)).toSeq == Seq(7f, 3f))
  }

  lazy val data: Array[Array[Float]] = {
    val rng = new scala.util.Random(9)
    val centers = Array.fill(10)(Array.fill(8)(rng.nextFloat() * 10))
    Array.tabulate(500) { i =>
      centers(i % 10).map(x => x + rng.nextGaussian().toFloat * 0.2f)
    }
  }
  lazy val ds = {
    import spark.implicits._
    spark.createDataset(data.toSeq.zipWithIndex.map { case (v, i) => VecRow(i.toLong, v) })
  }

  test("plain PQ (no PCA): codes are within codebook range and search works") {
    val idx = Pq.buildIndex(spark, ds, data, kCentroids = 16, usePca = false)
    assert(idx.name == "pq")
    val got = idx.search(data(0), 5)
    assert(got.length == 5)
  }

  test("OPQ (PCA rotation): distances in rotated space are preserved") {
    val idx = Pq.buildIndex(spark, ds, data, kCentroids = 16, usePca = true)
    assert(idx.name == "opq")
    // ADC distance should correlate with true distance: the true NN should
    // rank in the top quarter under ADC ordering for clustered data
    var good = 0
    for (i <- 0 until 20) {
      val brute = data.indices.filter(_ != i)
        .minBy(j => repro.core.Distance.l2(data(i), data(j)))
      val adcRank = idx.search(data(i), data.length).map(_._1).indexOf(brute.toLong)
      if (adcRank >= 0 && adcRank < data.length / 4) good += 1
    }
    assert(good >= 14, s"only $good/20 true NNs ranked in ADC top quarter")
  }

  test("PQ ADC self-query: the queried point's own code-cell ranks very well") {
    val idx = Pq.buildIndex(spark, ds, data, kCentroids = 32, usePca = false)
    var ok = 0
    for (i <- 0 until 30) {
      if (idx.search(data(i), 25).map(_._1).contains(i.toLong)) ok += 1
    }
    assert(ok >= 20, s"self-point found in top-25 only $ok/30 times")
  }

  test("index bytes: n codes + codebooks") {
    val idx = Pq.buildIndex(spark, ds, data, kCentroids = 16, usePca = false)
    assert(idx.indexBytes == 500L * 2 + 2L * 16 * 4 * 4)
  }

  test("kmeans produces the requested number of centroids of the right dim") {
    val cs = Common.kmeans(data, 16, iters = 3, seed = 1)
    assert(cs.length == 16)
    assert(cs.forall(_.length == 8))
  }

  test("kmeans on fewer points than centroids caps at n") {
    val cs = Common.kmeans(data.take(3), 16, iters = 2, seed = 1)
    assert(cs.length == 3)
  }

  test("nearestCentroid picks the argmin") {
    val cents = Array(Array(0f, 0f), Array(10f, 10f))
    assert(Common.nearestCentroid(Array(1f, 1f), cents) == 0)
    assert(Common.nearestCentroid(Array(9f, 9f), cents) == 1)
  }
}
