package repro.core

/** Reference-object (pivot) selection, Sec. 3.3.
  *
  * SSS (sparse spatial selection, the paper's recommended method) chooses
  * the index's references; Random, the baseline of the paper's comparison
  * (Fig. 4), is what the tests hold SSS against. Both run on the driver
  * over the materialized dataset — m = 10 and our scaled n make this cheap;
  * the paper's own analysis treats this step as O(m²·n). Each returns no
  * references for m = 0 (a reference-free index) and rejects a negative m.
  */
object ReferenceSelection {

  /** Farthest-neighbour hops of [[estimateDMax]]. */
  private final val DMaxHops = 5

  /** Estimate d_max by repeated farthest-neighbour hops (the paper's
    * heuristic): start from a random object, jump to its farthest neighbour,
    * repeat for [[DMaxHops]] rounds, return the largest distance seen.
    */
  def estimateDMax(data: Array[Array[Float]], seed: Long = 7): Double = {
    require(data.length >= 2, "need at least two objects")
    val rng  = new scala.util.Random(seed)
    var cur  = rng.nextInt(data.length)
    var dmax = 0.0
    var it = 0
    while (it < DMaxHops) {
      var far = -1
      var fd  = -1.0
      var i = 0
      while (i < data.length) {
        if (i != cur) {
          val d = Distance.l2(data(cur), data(i))
          if (d > fd) { fd = d; far = i }
        }
        i += 1
      }
      if (fd > dmax) dmax = fd
      cur = far
      it += 1
    }
    dmax
  }

  /** m uniformly random reference objects (baseline in Fig. 4). */
  def random(data: Array[Array[Float]], m: Int, seed: Long = 7): Array[Int] = {
    require(m >= 0, s"m must be non-negative, got $m")
    val rng = new scala.util.Random(seed)
    val ids = scala.collection.mutable.LinkedHashSet.empty[Int]
    while (ids.size < math.min(m, data.length)) ids += rng.nextInt(data.length)
    ids.toArray
  }

  /** SSS [57]: scan the dataset, adding any object whose distance to *all*
    * previously selected references exceeds f · d_max, until m are found.
    * If the scan exhausts the data before reaching m (f too large for the
    * dataset's spread), the remainder is filled with the objects that were
    * farthest from the current set — keeps the method total.
    */
  def sss(data: Array[Array[Float]], m: Int, f: Double = 0.3, seed: Long = 7): Array[Int] = {
    require(m >= 0, s"m must be non-negative, got $m")
    require(m <= data.length, s"m = $m references need at least $m objects, got n = ${data.length}")
    if (m == 0) return Array.empty
    val dmax = estimateDMax(data, seed = seed)
    val thr  = f * dmax
    val rng  = new scala.util.Random(seed)
    val sel  = scala.collection.mutable.ArrayBuffer[Int](rng.nextInt(data.length))
    var i = 0
    while (i < data.length && sel.size < m) {
      if (!sel.contains(i) && sel.forall(s => Distance.l2(data(s), data(i)) > thr)) sel += i
      i += 1
    }
    if (sel.size < m) {
      // fill by max-min distance (farthest-point traversal)
      while (sel.size < m) {
        var best = -1; var bestD = -1.0
        var j = 0
        while (j < data.length) {
          if (!sel.contains(j)) {
            val d = sel.map(s => Distance.l2(data(s), data(j))).min
            if (d > bestD) { bestD = d; best = j }
          }
          j += 1
        }
        sel += best
      }
    }
    sel.toArray
  }
}
