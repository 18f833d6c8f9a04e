package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.core.Distance

/** SRS (Sun et al. [65]) — the tiny-index LSH-family method.
  *
  * Every object is projected onto m = 6 Gaussian (2-stable) dimensions;
  * only the m-dim projections are indexed (hence the ~3× smaller index the
  * paper reports). A query examines points in order of *projected* distance
  * (the incremental kNN the paper runs over an R-tree), computing exact
  * distances, and stops after max(2k, t·n) points or when the early-
  * termination test succeeds: P[χ²_m < m·(τ'·d_proj/best)²] is confident —
  * here in the same simplified multiplicative form used by SRS-12's
  * threshold τ' on (projected distance / current best exact distance).
  */
object Srs extends AnnMethod {
  /** Projected dimensions m. */
  private final val M = 6
  /** Most objects examined, as a fraction t of n (SRS-12's setting). */
  private final val T = 0.00242
  /** SRS-12's early-termination threshold τ'. */
  private final val EarlyTau = 0.1809
  private final val Seed = 7L

  final class Index(
      data: Array[Array[Float]],
      projections: Array[Array[Float]],
      // n × m
      projected: Array[Array[Float]]) extends AnnIndex(Common.dimOf(data)) {

    override def name = "srs"
    private val m = projections.length

    override protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)] = {
      val qp = projections.map(p => Common.dot(q, p).toFloat)
      // incremental NN in projected space == scan in ascending (projected
      // distance, index), and no more than maxExamine points are examined
      val maxExamine = math.max(2 * k, math.ceil(T * data.length).toInt)
      val nearest = new Distance.TopK(maxExamine)
      var i = 0
      while (i < data.length) {
        var s = 0.0
        var j = 0
        while (j < m) { val d = projected(i)(j) - qp(j); s += d * d; j += 1 }
        nearest.offer(i, s)
        i += 1
      }
      val order = nearest.result()
      val best = new Distance.TopK(k)
      var examined = 0
      var stop = false
      while (examined < order.length && !stop) {
        val id = order(examined)._1
        best.offer(id, Distance.l2(data(id.toInt), q))
        examined += 1
        if (examined < order.length) {
          // early termination (SRS-12, simplified): sqrt(pd/m) is an unbiased
          // estimate of the next point's true distance (2-stable property);
          // once it exceeds c=2 times the current k-th exact distance (+∞
          // until k points are held) the c-approximation already holds with
          // the confidence governed by τ' and the search can stop.
          val pd = order(examined)._2
          if (math.sqrt(pd / m) * (1.0 + EarlyTau) > 2.0 * best.worst) stop = true
        }
      }
      best.result()
    }

    override def indexBytes: Long = data.length.toLong * (m * 4L + 8L)
  }

  def buildIndex(spark: SparkSession, data: Dataset[VecRow], localData: Array[Array[Float]]): Index = {
    val dim = localData.head.length
    val projections = Common.gaussianProjections(dim, M, Seed)
    val bP = spark.sparkContext.broadcast(projections)
    val projected = Common.collectById(data, localData)(r =>
      bP.value.map(p => Common.dot(r.vec, p).toFloat))
    new Index(localData, projections, projected)
  }

  override protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                                      localData: Array[Array[Float]]): AnnIndex =
    buildIndex(spark, data, localData)
}
