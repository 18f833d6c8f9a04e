package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.core.Distance

/** C2LSH (Gan et al. [27]) — dynamic collision counting LSH.
  *
  * m p-stable hash functions h_i(o) = floor((a_i·o + b_i)/w) map objects to
  * integer buckets. *Virtual rehashing* at level r coarsens buckets by
  * factor c^r (c = 2 ⇒ bucket id >> r); a point "collides" with the query
  * on h_i at level r iff the coarsened buckets match. A point becomes a
  * candidate once its collision count reaches the threshold l; levels grow
  * until βn + k candidates exist, whose exact distances give the answer.
  *
  * Implementation note: for c = 2 the first level at which h_i collides is
  * the highest set bit of `h_i(o) XOR h_i(q)` (over offset-to-non-negative
  * bucket ids), so each point's *qualifying level* is the l-th smallest of
  * its m per-hash levels — computing it directly replaces the level-by-level
  * loop with one O(n·m) pass and candidates emerge in exactly the order the
  * original algorithm would find them.
  */
object C2Lsh extends AnnMethod {
  override def name = "c2lsh"

  private val Offset = 1L << 40 // shifts bucket ids to non-negative for the XOR trick

  final class Index(
      data: Array[Array[Float]],
      projections: Array[Array[Float]],
      offsets: Array[Double], w: Double,
      buckets: Array[Array[Long]], // n × m bucket ids (non-negative)
      collisionThreshold: Int, betaN: Int,
      val buildMillis: Long) extends AnnIndex(Common.dimOf(data)) {

    override def name = "c2lsh"
    private val m = projections.length

    override protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)] = {
      val qb = Array.tabulate(m)(i =>
        math.floor((Common.dot(q, projections(i)) + offsets(i)) / w).toLong + Offset)
      val nCand = math.min(data.length, betaN + k)
      // qualifying level per point = l-th smallest per-hash first-collision
      // level; the nCand smallest by (level, id) are the candidates
      val cands = new Distance.TopK(nCand)
      val tmp = new Array[Int](m)
      var i = 0
      while (i < data.length) {
        var j = 0
        while (j < m) {
          val x = buckets(i)(j) ^ qb(j)
          tmp(j) = if (x == 0) 0 else 64 - java.lang.Long.numberOfLeadingZeros(x)
          j += 1
        }
        java.util.Arrays.sort(tmp)
        cands.offer(i, tmp(collisionThreshold - 1))
        i += 1
      }
      Distance.topK(cands.result().iterator.map { case (i, _) => i -> Distance.l2(data(i.toInt), q) }, k)
    }

    override def indexBytes: Long = data.length.toLong * m * 8L
  }

  def buildIndex(spark: SparkSession, data: Dataset[VecRow], localData: Array[Array[Float]],
                 m: Int = 20, alphaFrac: Double = 0.6, betaFrac: Double = 0.01,
                 seed: Long = 7): Index = {
    val t0 = System.nanoTime()
    val dim = localData.head.length
    val projections = Common.gaussianProjections(dim, m, seed)
    val rng = new java.util.Random(seed + 1)
    // w = 1 in the paper for normalized data; scale to the projection spread
    // so the base grid resolves the data (same role, any value domain).
    val sampleSpread = {
      val s = (0 until math.min(500, localData.length))
        .map(i => Common.dot(localData(i), projections(0)))
      val mean = s.sum / s.size
      math.sqrt(s.map(x => (x - mean) * (x - mean)).sum / s.size)
    }
    val w = math.max(1e-9, sampleSpread / 8.0)
    val offsets = Array.fill(m)(rng.nextDouble() * w)
    val bP = spark.sparkContext.broadcast(projections)
    val bO = spark.sparkContext.broadcast(offsets)

    val pairs = data.rdd.map { r =>
      val ps = bP.value; val os = bO.value
      r.id -> Array.tabulate(ps.length)(i =>
        math.floor((Common.dot(r.vec, ps(i)) + os(i)) / w).toLong + Offset)
    }.collect()
    val buckets = new Array[Array[Long]](localData.length)
    pairs.foreach { case (id, b) => buckets(id.toInt) = b }

    val threshold = math.max(1, math.ceil(alphaFrac * m).toInt)
    val betaN = math.max(1, math.ceil(betaFrac * localData.length).toInt)
    new Index(localData, projections, offsets, w, buckets, threshold, betaN,
              (System.nanoTime() - t0) / 1000000L)
  }

  override def build(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                     localData: Array[Array[Float]]): AnnIndex =
    buildIndex(spark, data, localData)
}
