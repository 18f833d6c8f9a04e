package repro.baselines

import scala.reflect.ClassTag
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.core.{Distance, HdQuery}

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
}

/** A method of the comparison: builds its [[AnnIndex]], which carries the
  * method's name.
  */
trait AnnMethod {
  /** Every method rejects here an object of `localData` (the driver-side
    * copy of `data`) of the wrong dimension or with a non-finite
    * coordinate, naming it by its id.
    */
  final def build(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                  localData: Array[Array[Float]]): AnnIndex = {
    for (id <- localData.indices) HdQuery.checkQuery(localData(id), spec.dim, s"object $id")
    buildChecked(spark, spec, data, localData)
  }
  /** The method's own [[build]], on checked objects. */
  protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                             localData: Array[Array[Float]]): AnnIndex
}

object Common {
  /** [[AnnIndex.dim]] of an index over `data`. */
  def dimOf(data: Array[Array[Float]]): Int = if (data.isEmpty) -1 else data(0).length

  /** The values of `pairs` placed at their ids, whatever order the pairs
    * come in. The one check that a dataset's ids are exactly 0 until n:
    * past it, an id is a dense `Int`.
    */
  def byId[T: ClassTag](n: Int, pairs: IterableOnce[(Long, T)]): Array[T] = {
    val (out, seen) = (new Array[T](n), new java.util.BitSet(n))
    pairs.iterator.foreach { case (id, v) =>
      require(id >= 0 && id < n, s"object id $id is out of range [0, $n)")
      require(!seen.get(id.toInt), s"object id $id is repeated")
      seen.set(id.toInt); out(id.toInt) = v
    }
    require(seen.cardinality == n, s"object id ${seen.nextClearBit(0)} is missing")
    out
  }

  /** `f` of every object of `data`, computed in Spark and placed by
    * [[byId]]. `localData` is the driver-side copy of `data`: each object's
    * vector must hash (`java.util.Arrays.hashCode`) as its row there, as in
    * `HdIndex.build`, else the first differing id is named.
    */
  def collectById[T: ClassTag](data: Dataset[VecRow], localData: Array[Array[Float]])(f: VecRow => T): Array[T] = {
    val rows = byId(localData.length, data.rdd.map(r => r.id -> (java.util.Arrays.hashCode(r.vec), f(r))).collect())
    for (id <- rows.indices)
      require(rows(id)._1 == java.util.Arrays.hashCode(localData(id)), s"object $id of data differs from localData")
    rows.map(_._2)
  }

  /** Base bucket width w of C2LSH and QALSH. The paper uses w = 1 on
    * normalised data; here it is 1/8 of the spread of the first
    * projection over the first 500 objects, so that the base grid resolves
    * the data on any value domain.
    */
  def bucketWidth(localData: Array[Array[Float]], projection: Array[Float]): Double = {
    val s = (0 until math.min(500, localData.length)).map(i => dot(localData(i), projection))
    val mean = s.sum / s.size
    math.max(1e-9, math.sqrt(s.map(x => (x - mean) * (x - mean)).sum / s.size) / 8.0)
  }

  /** The collision-counting query of C2LSH and QALSH. An object's
    * qualifying level is the l-th smallest (l = `collisionThreshold`) of
    * its m per-hash levels `level(i, j)`, the first virtual-rehash level at
    * which hash j of object i collides with the query's. The βn + k
    * objects smallest by (qualifying level, id) are the candidates, in the
    * order the level-by-level algorithm finds them, and their exact
    * distances give the answer.
    */
  def collisionSearch(data: Array[Array[Float]], q: Array[Float], k: Int, m: Int,
                      collisionThreshold: Int, betaN: Int)(level: (Int, Int) => Double): Array[(Long, Double)] = {
    val cands = new Distance.TopK(math.min(data.length, betaN + k))
    val tmp = new Array[Double](m)
    var i = 0
    while (i < data.length) {
      // ids come in ascending order, so once cands is full (worst < +∞)
      // object i enters only if its qualifying level is below worst, that
      // is if at least l of its levels are: only then is the sort needed
      val worst = cands.worst
      var below = 0
      var j = 0
      while (j < m) {
        tmp(j) = level(i, j)
        if (tmp(j) < worst) below += 1
        j += 1
      }
      if (below >= collisionThreshold || worst == Double.PositiveInfinity) {
        java.util.Arrays.sort(tmp)
        cands.offer(i, tmp(collisionThreshold - 1))
      }
      i += 1
    }
    Distance.topK(cands.result().iterator.map { case (i, _) => i -> Distance.l2(data(i.toInt), q) }, k)
  }

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
      val d = Distance.l2sq(p, centroids(c))
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    best
  }
}
