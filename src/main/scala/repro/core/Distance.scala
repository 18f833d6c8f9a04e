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
