package repro.core

/** Euclidean (L2) distance kernels and the bounded (distance, id) top-k
  * shared by the index and every baseline.
  *
  * Vectors are `Array[Float]` throughout (half the memory of doubles at the
  * 100–1400 dimensionalities the paper evaluates); accumulation is in Double
  * so results are stable enough for the DuckDB oracle's 1e-6 canonicalizer.
  */
object Distance {

  /** Squared L2 distance. Hot path — plain while loop, no allocation. */
  def l2sq(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0
    var i = 0
    while (i < a.length) {
      val d = a(i).toDouble - b(i).toDouble
      s += d * d
      i += 1
    }
    s
  }

  /** L2 distance. */
  def l2(a: Array[Float], b: Array[Float]): Double = math.sqrt(l2sq(a, b))

  /** Coordinates summed between the early-stop checks of [[l2sq4]]. */
  private final val Block = 64

  /** `l2sq(a, q)`, `l2sq(b, q)`, `l2sq(c, q)` and `l2sq(d, q)` into
    * out(0 to 3), summed side by side: four independent accumulators, each
    * in [[l2sq]]'s own order, so a completed lane is bit-identical to
    * [[l2sq]]. After each block of 64 coordinates it stops early if all
    * four partial sums exceed `cap`; a partial sum of squares never
    * decreases, so each lane's full sum then exceeds `cap` too.
    *
    * @return the coordinates summed per lane: q.length when out holds the
    *         four full sums, fewer when it stopped early and out holds
    *         partial sums
    */
  def l2sq4(q: Array[Float], a: Array[Float], b: Array[Float], c: Array[Float], d: Array[Float],
            cap: Double, out: Array[Double]): Int = {
    val n = q.length
    require(a.length == n && b.length == n && c.length == n && d.length == n,
            s"dim mismatch ${a.length}, ${b.length}, ${c.length}, ${d.length} vs $n")
    var s0, s1, s2, s3 = 0.0
    var i = 0
    var stop = false
    while (i < n && !stop) {
      val end = math.min(i + Block, n)
      while (i < end) {
        val x = q(i).toDouble
        val d0 = a(i).toDouble - x; s0 += d0 * d0
        val d1 = b(i).toDouble - x; s1 += d1 * d1
        val d2 = c(i).toDouble - x; s2 += d2 * d2
        val d3 = d(i).toDouble - x; s3 += d3 * d3
        i += 1
      }
      stop = i < n && s0 > cap && s1 > cap && s2 > cap && s3 > cap
    }
    out(0) = s0; out(1) = s1; out(2) = s2; out(3) = s3
    i
  }

  /** The largest x with `math.sqrt(x) <= worst`, so that a squared
    * distance above it is a distance above `worst`: the `cap` of [[l2sq4]]
    * for a top-k whose k-th distance is `worst` (+∞ for +∞).
    */
  def sqCap(worst: Double): Double = {
    require(worst >= 0, s"worst must be non-negative, got $worst")
    if (worst == Double.PositiveInfinity) return worst
    // sqrt is correctly rounded, hence monotone: step to the edge from worst²
    var x = worst * worst
    while (math.sqrt(x) > worst) x = Math.nextDown(x)
    while (math.sqrt(Math.nextUp(x)) <= worst) x = Math.nextUp(x)
    x
  }

  /** The k smallest (distance, id) pairs offered, ordered by distance
    * (`java.lang.Double.compare`) and then by id: a bounded max-heap held in
    * two primitive arrays, so no pair is boxed before [[result]]. The one
    * top-k of the index and of every baseline.
    */
  final class TopK(k: Int) {
    require(k >= 0, s"k must be non-negative, got $k")
    private val hd  = new Array[Double](k)
    private val hid = new Array[Long](k)
    private var size = 0

    /** +∞ until k pairs are held, then the k-th smallest distance (−∞ when
      * k = 0): a pair with a larger distance can no longer enter.
      */
    def worst: Double =
      if (size < k) Double.PositiveInfinity else if (k == 0) Double.NegativeInfinity else hd(0)

    /** Adds (id, d), dropping whichever pair is then the largest of k + 1. */
    def offer(id: Long, d: Double): Unit =
      if (size < k) {
        var at = size
        while (at > 0 && before(hd((at - 1) / 2), hid((at - 1) / 2), d, id)) {
          val parent = (at - 1) / 2
          hd(at) = hd(parent); hid(at) = hid(parent)
          at = parent
        }
        hd(at) = d; hid(at) = id
        size += 1
      } else if (size > 0 && before(d, id, hd(0), hid(0))) siftDown(size, d, id)

    /** The pairs held, ascending by (distance, id), as (id, distance). Call
      * it once, after the last [[offer]]: it sorts the heap in place.
      */
    def result(): Array[(Long, Double)] = {
      // heap sort: move the current worst behind the shrinking heap
      var m = size
      while (m > 1) {
        m -= 1
        val d = hd(m); val id = hid(m)
        hd(m) = hd(0); hid(m) = hid(0)
        siftDown(m, d, id)
      }
      Array.tabulate(size)(i => (hid(i), hd(i)))
    }

    // restore the heap order of slots [0, n) after the root took (d, id)
    private def siftDown(n: Int, d: Double, id: Long): Unit = {
      var at = 0
      var child = 1
      while (child < n) {
        if (child + 1 < n && before(hd(child), hid(child), hd(child + 1), hid(child + 1))) child += 1
        if (before(d, id, hd(child), hid(child))) {
          hd(at) = hd(child); hid(at) = hid(child)
          at = child
          child = 2 * at + 1
        } else child = n
      }
      hd(at) = d; hid(at) = id
    }
  }

  /** (d1, id1) < (d2, id2), distances by `java.lang.Double.compare`. */
  private def before(d1: Double, id1: Long, d2: Double, id2: Long): Boolean = {
    val c = java.lang.Double.compare(d1, d2)
    c < 0 || (c == 0 && id1 < id2)
  }

  /** The k smallest scored ids, ascending by (score, id), through [[TopK]]. */
  def topK(scored: Iterator[(Long, Double)], k: Int): Array[(Long, Double)] = {
    val top = new TopK(k)
    scored.foreach { case (id, s) => top.offer(id, s) }
    top.result()
  }
}
