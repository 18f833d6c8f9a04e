package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.core.HdQuery

/** Common contract for every kANN method in the comparison (Sec. 2.2.6).
  *
  * `build` may run distributed (Spark jobs for the per-point heavy lifting)
  * but the built structure answers single queries on the driver so that
  * per-query wall-clock measures the algorithm, not Spark job scheduling —
  * mirroring the paper's single-machine per-query timings.
  *
  * @param dim dimension ν of the indexed vectors; −1 for an index over no
  *            vectors, which takes a query of any length
  */
abstract class AnnIndex(val dim: Int) extends Serializable {
  def name: String
  /** Ranked kNN: (id, distance) ascending by (distance, id). Every method
    * rejects here k ≤ 0 and a query of the wrong dimension or with a
    * non-finite (NaN, ±Inf) coordinate.
    */
  final def search(q: Array[Float], k: Int): Array[(Long, Double)] = {
    require(k > 0, s"k must be positive, got $k")
    HdQuery.checkQuery(q, if (dim < 0) q.length else dim)
    searchChecked(q, k)
  }
  /** The method's own [[search]], on a checked query. */
  protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)]
  /** Index size estimate in bytes (for the scalability columns). */
  def indexBytes: Long
  /** Build wall-clock in ms. */
  def buildMillis: Long
}

trait AnnMethod {
  def name: String
  def build(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
            localData: Array[Array[Float]]): AnnIndex
}

object Common {
  /** [[AnnIndex.dim]] of an index over `data`. */
  def dimOf(data: Array[Array[Float]]): Int = if (data.isEmpty) -1 else data(0).length
  /** Gaussian 2-stable projection vectors, deterministic in seed. */
  def gaussianProjections(dim: Int, count: Int, seed: Long): Array[Array[Float]] = {
    val rng = new java.util.Random(seed)
    Array.fill(count)(Array.fill(dim)(rng.nextGaussian().toFloat))
  }

  def dot(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i).toDouble * b(i).toDouble; i += 1 }
    s
  }

  /** Simple k-means on the driver over a sample; returns centroids.
    * Used by iDistance (cluster pivots) and PQ/OPQ (codebooks).
    */
  def kmeans(points: Array[Array[Float]], kCentroids: Int, iters: Int, seed: Long): Array[Array[Float]] = {
    require(points.nonEmpty, "kmeans on empty input")
    val dim = points.head.length
    val rng = new scala.util.Random(seed)
    val k   = math.min(kCentroids, points.length)
    var centroids = rng.shuffle(points.indices.toList).take(k).map(points(_)).toArray
    var it = 0
    while (it < iters) {
      val sums   = Array.fill(k)(new Array[Double](dim))
      val counts = new Array[Int](k)
      var p = 0
      while (p < points.length) {
        val c = nearestCentroid(points(p), centroids)
        counts(c) += 1
        var d = 0
        while (d < dim) { sums(c)(d) += points(p)(d); d += 1 }
        p += 1
      }
      centroids = Array.tabulate(k) { c =>
        if (counts(c) == 0) points(rng.nextInt(points.length))
        else Array.tabulate(dim)(d => (sums(c)(d) / counts(c)).toFloat)
      }
      it += 1
    }
    centroids
  }

  def nearestCentroid(p: Array[Float], centroids: Array[Array[Float]]): Int = {
    var best = 0
    var bestD = Double.MaxValue
    var c = 0
    while (c < centroids.length) {
      val d = repro.core.Distance.l2sq(p, centroids(c))
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    best
  }
}
