package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}

/** QALSH (Huang et al. [34]) — query-aware LSH.
  *
  * Unlike C2LSH there is no pre-quantized grid: the raw projections
  * a_i·o are kept (in B+-trees in the paper; sorted arrays here) and
  * bucket *boundaries are decided at query time*, centred on a_i·q with
  * half-width (w/2)·c^r that expands with the virtual-rehash level r.
  * The first level at which projection i collides is therefore
  * ceil(log_c(2|a_i·o − a_i·q| / w)); a point's qualifying level is the
  * l-th smallest over the m projections, and candidates are examined in
  * qualifying-level order until βn + k of them — query-centred continuous
  * intervals are what buys QALSH its better MAP over C2LSH.
  */
object Qalsh extends AnnMethod {
  /** Hash functions m. */
  private final val M = 20
  /** Collision threshold l, as a fraction α of m. */
  private final val AlphaFrac = 0.6
  /** False-positive budget βn, as the fraction β of n. */
  private final val BetaFrac = 0.01
  private final val Seed = 17L

  final class Index(
      data: Array[Array[Float]],
      projections: Array[Array[Float]],
      w: Double,
      projs: Array[Array[Float]], // n × m raw projections
      collisionThreshold: Int, betaN: Int) extends AnnIndex(Common.dimOf(data)) {

    override def name = "qalsh"
    private val m = projections.length

    override protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)] = {
      val qp = Array.tabulate(m)(i => Common.dot(q, projections(i)))
      Common.collisionSearch(data, q, k, m, collisionThreshold, betaN) { (i, j) =>
        // clamp away subnormal gaps: on [-1,1]-domain data the projection
        // differences can be denormal floats, and feeding those through
        // log costs a ~100x FP slow path on x86
        val gap = math.max(1e-12, math.abs(projs(i)(j) - qp(j)))
        // smallest r (continuous) with gap <= (w/2)·2^r
        if (gap <= w / 2) 0.0 else math.log(2 * gap / w) / math.log(2.0)
      }
    }

    override def indexBytes: Long = data.length.toLong * m * (4L + 8L) // proj + B+-tree ptr
  }

  def buildIndex(spark: SparkSession, data: Dataset[VecRow], localData: Array[Array[Float]]): Index = {
    val dim = localData.head.length
    val projections = Common.gaussianProjections(dim, M, Seed)
    val w = Common.bucketWidth(localData, projections(0))
    val bP = spark.sparkContext.broadcast(projections)
    val projs = Common.collectById(data, localData) { r =>
      val ps = bP.value
      Array.tabulate(ps.length)(i => Common.dot(r.vec, ps(i)).toFloat)
    }
    val threshold = math.max(1, math.ceil(AlphaFrac * M).toInt)
    val betaN = math.max(1, math.ceil(BetaFrac * localData.length).toInt)
    new Index(localData, projections, w, projs, threshold, betaN)
  }

  override protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                                      localData: Array[Array[Float]]): AnnIndex =
    buildIndex(spark, data, localData)
}
