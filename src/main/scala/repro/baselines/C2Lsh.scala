package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}

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
  /** Hash functions m. */
  private final val M = 20
  /** Collision threshold l, as a fraction α of m. */
  private final val AlphaFrac = 0.6
  /** False-positive budget βn, as the fraction β of n. */
  private final val BetaFrac = 0.01
  private final val Seed = 7L

  private val Offset = 1L << 40 // shifts bucket ids to non-negative for the XOR trick

  final class Index(
      data: Array[Array[Float]],
      projections: Array[Array[Float]],
      offsets: Array[Double], w: Double,
      buckets: Array[Array[Long]], // n × m bucket ids (non-negative)
      collisionThreshold: Int, betaN: Int) extends AnnIndex(Common.dimOf(data)) {

    override def name = "c2lsh"
    private val m = projections.length

    override protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)] = {
      val qb = Array.tabulate(m)(i =>
        math.floor((Common.dot(q, projections(i)) + offsets(i)) / w).toLong + Offset)
      Common.collisionSearch(data, q, k, m, collisionThreshold, betaN) { (i, j) =>
        val x = buckets(i)(j) ^ qb(j)
        if (x == 0) 0.0 else 64 - java.lang.Long.numberOfLeadingZeros(x)
      }
    }

    override def indexBytes: Long = data.length.toLong * m * 8L
  }

  def buildIndex(spark: SparkSession, data: Dataset[VecRow], localData: Array[Array[Float]]): Index = {
    val dim = localData.head.length
    val projections = Common.gaussianProjections(dim, M, Seed)
    val w = Common.bucketWidth(localData, projections(0))
    val rng = new java.util.Random(Seed + 1)
    val offsets = Array.fill(M)(rng.nextDouble() * w)
    val bP = spark.sparkContext.broadcast(projections)
    val bO = spark.sparkContext.broadcast(offsets)
    val buckets = Common.collectById(data, localData) { r =>
      val ps = bP.value; val os = bO.value
      Array.tabulate(ps.length)(i => math.floor((Common.dot(r.vec, ps(i)) + os(i)) / w).toLong + Offset)
    }
    val threshold = math.max(1, math.ceil(AlphaFrac * M).toInt)
    val betaN = math.max(1, math.ceil(BetaFrac * localData.length).toInt)
    new Index(localData, projections, offsets, w, buckets, threshold, betaN)
  }

  override protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                                      localData: Array[Array[Float]]): AnnIndex =
    buildIndex(spark, data, localData)
}
