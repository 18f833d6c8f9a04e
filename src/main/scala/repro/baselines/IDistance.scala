package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.core.Distance

/** iDistance [74] — the *exact* kNN comparator in the paper's evaluation.
  *
  * Points are clustered; each object is keyed by
  * `pivotId · C + d(o, pivot)` and the one-dimensional keys are indexed in a
  * B+-tree (here: one sorted array per pivot, which is what the B+-tree
  * degenerates to for range scans). A query searches an expanding radius
  * r, r + Δr, …: for every pivot whose annulus
  * [d(q,p) − r, d(q,p) + r] intersects the pivot's key range, the key range
  * is scanned and exact distances computed; the search stops when the k-th
  * best distance ≤ r, which guarantees the exact answer.
  */
object IDistance extends AnnMethod {
  /** The published first radius r0 and step Δr, relative to the data scale. */
  private final val R0 = 0.01
  private final val Dr = 0.01
  private final val Seed = 7L
  /** Pivots: k-means centroids of a sample, each object keyed by its nearest. */
  private final val NPivots = 16

  final class Index(
      data: Array[Array[Float]],
      pivots: Array[Array[Float]],
      // per pivot: ids sorted by distance-to-pivot, plus the parallel dists
      byPivot: Array[(Array[Int], Array[Double])],
      r0: Double, dr: Double) extends AnnIndex(Common.dimOf(data)) {

    override def name = "idistance"

    override protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)] = {
      val dq = pivots.map(p => Distance.l2(q, p))
      // per pivot scan state: expanding [lo, hi) window over the sorted dists
      val lo = new Array[Int](pivots.length)
      val hi = new Array[Int](pivots.length)
      var p = 0
      while (p < pivots.length) {
        val dists = byPivot(p)._2
        // start both cursors at the position of d(q, pivot)
        var l = java.util.Arrays.binarySearch(dists, dq(p))
        if (l < 0) l = -l - 1
        lo(p) = l; hi(p) = l
        p += 1
      }
      val best = new Distance.TopK(k)
      var r = r0
      // Δr, doubled after each round that scans nothing: when every object
      // sits on its pivot (n ≤ 16 distinct objects), the data scale and Δr
      // are ~0 and a constant step would take ~d(q, pivot)/Δr rounds
      var step = dr
      var done = false
      while (!done) {
        var progressed = false
        p = 0
        while (p < pivots.length) {
          val (ids, dists) = byPivot(p)
          val lb = dq(p) - r
          val ub = dq(p) + r
          while (lo(p) > 0 && dists(lo(p) - 1) >= lb) {
            lo(p) -= 1
            val id = ids(lo(p)); best.offer(id, Distance.l2(data(id), q)); progressed = true
          }
          while (hi(p) < dists.length && dists(hi(p)) <= ub) {
            val id = ids(hi(p)); best.offer(id, Distance.l2(data(id), q)); hi(p) += 1; progressed = true
          }
          p += 1
        }
        val exhausted = (0 until pivots.length).forall(i => lo(i) == 0 && hi(i) == byPivot(i)._2.length)
        // exact once the k-th distance is within r (worst is +∞ until k are held)
        if (best.worst <= r || exhausted) done = true
        else {
          step = if (progressed) dr else 2 * step
          r += step
          if (!progressed && r > 1e18) done = true
        }
      }
      best.result()
    }

    override def indexBytes: Long =
      // key (8B) + pointer (8B) per object, plus pivot vectors
      data.length.toLong * 16 + pivots.length.toLong * pivots.headOption.map(_.length * 4L).getOrElse(0L)
  }

  def buildIndex(spark: SparkSession, data: Dataset[VecRow], localData: Array[Array[Float]]): Index = {
    val sample = {
      val rng = new scala.util.Random(Seed)
      Array.fill(math.min(2000, localData.length))(localData(rng.nextInt(localData.length)))
    }
    val pivots = Common.kmeans(sample, NPivots, iters = 8, seed = Seed)
    val bPivots = spark.sparkContext.broadcast(pivots)

    // per object: nearest pivot and the distance to it
    val keys = Common.collectById(data, localData.length) { r =>
      val ps = bPivots.value
      val c  = Common.nearestCentroid(r.vec, ps)
      (c, Distance.l2(r.vec, ps(c)))
    }

    val byPivot = Array.tabulate(pivots.length) { p =>
      val es = keys.indices.filter(keys(_)._1 == p).sortBy(i => (keys(i)._2, i))
      (es.toArray, es.map(keys(_)._2).toArray)
    }
    // Δr in absolute units: the published r0/Δr=0.01 are relative to the
    // data scale; scale by the mean pivot distance so expansion terminates
    // in a comparable number of rounds on any value domain.
    val scale = math.max(1e-9, keys.iterator.map(_._2).sum / math.max(1, keys.length))
    new Index(localData, pivots, byPivot, R0 * scale, Dr * scale)
  }

  override protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                                      localData: Array[Array[Float]]): AnnIndex =
    buildIndex(spark, data, localData)
}
