package repro.core

/** Query-time parameters (Algo. 2). Paper recommendations (Sec. 5.2):
  * triangular-only filtering with α/γ = 4; when Ptolemaic is enabled,
  * α/β = 1 and β/γ = 4.
  */
final case class QueryParams(k: Int, alpha: Int, beta: Int, gamma: Int,
                             usePtolemaic: Boolean = false) {
  require(k > 0, s"k must be positive, got $k")
  require(0 < gamma && gamma <= beta && beta <= alpha,
          s"need 0 < gamma <= beta <= alpha, got alpha=$alpha beta=$beta gamma=$gamma")
}

object QueryParams {
  /** The paper's recommended ratios (Sec. 5.2) for the caller's α:
    * triangular only, β = γ = max(k, α/4); with the Ptolemaic filter,
    * β = α and γ = max(k, α/4).
    */
  def recommended(k: Int, alpha: Int, usePtolemaic: Boolean = false): QueryParams =
    if (usePtolemaic) QueryParams(k, alpha, alpha, math.max(k, alpha / 4), usePtolemaic = true)
    else QueryParams(k, alpha, math.max(k, alpha / 4), math.max(k, alpha / 4))
}

/** Per-query cost counters using the paper's disk model (Sec. 4.4.1):
  * leaf pages touched (tree descents + sequential leaf scan of the α-window)
  * and random accesses for the κ candidate descriptors.
  */
final case class QueryStats(leafPages: Long, randomAccesses: Long, kappa: Int)

/** kANN querying over a built HD-Index (Algo. 2). [[searchLocal]] walks
  * the driver-side sorted trees. Per tree, it chooses the α-window by binary
  * search ([[selectWindow]]: O(log n + log α) key comparisons). The rest of
  * a query runs in primitive arrays reused across the τ trees. Each
  * object's bounds are computed once per query and remembered by id: per
  * window, the unknown ones in column loops over the gathered refdists, a
  * reference or a reference pair at a time, bit for bit [[triBound]] and
  * [[ptolemaicBound]]. The filters cut to β and γ by in-place selection
  * over packed (bound, position) longs; with the Ptolemaic filter, the
  * triangular pass runs only where β cuts, and triangular bounds rank only
  * the entries tied at the γ cut, as Algo 2's order requires. A survivor is
  * one (bound, id) long, so one sort de-duplicates the survivors and orders
  * them by bound. The exact rerank then runs in that order, four candidates
  * at a time ([[Distance.l2sq4]]), gives up on a group once all four are
  * beyond the current k-th distance, and keeps the top k by (distance, id)
  * in a [[Distance.TopK]]: the answer is the full rerank's, bit for bit.
  */
object HdQuery {

  // ---- lower bounds ----------------------------------------------------

  /** Eq. 5: best triangular lower bound over the m references, from the
    * query's distances dq and the object's stored (`Float`) refdists rd.
    * It exceeds the true distance d(q, o) by at most
    * ε = 2⁻²³ · max_i max(dq(i), rd(i)): rd(i) is d(o, R_i) rounded to
    * `Float` (at most 2⁻²⁴ · rd(i) away), and the `Double` arithmetic adds
    * far less.
    */
  def triBound(dq: Array[Double], rd: Array[Float]): Double = {
    var best = 0.0
    var i = 0
    while (i < dq.length) {
      val b = math.abs(dq(i) - rd(i))
      if (b > best) best = b
      i += 1
    }
    best
  }

  /** Eq. 6: best Ptolemaic lower bound over the (m choose 2) reference
    * pairs, skipping pairs at distance 0. It exceeds the true distance
    * d(q, o) by at most ε = 2⁻²³ times the largest
    * (dq(i) · rd(j) + dq(j) · rd(i)) / d(R_i, R_j) over those pairs: the
    * `Float` rounding of rd, scaled by the pair's terms over its distance,
    * so the slack grows as two references near each other.
    */
  def ptolemaicBound(dq: Array[Double], rd: Array[Float], refMatrix: Array[Array[Double]]): Double = {
    var best = 0.0
    var i = 0
    while (i < dq.length) {
      var j = i + 1
      while (j < dq.length) {
        val denom = refMatrix(i)(j)
        if (denom > 0) {
          val b = math.abs(dq(i) * rd(j) - dq(j) * rd(i)) / denom
          if (b > best) best = b
        }
        j += 1
      }
      i += 1
    }
    best
  }

  // ---- window retrieval -------------------------------------------------

  /** Index of the first key >= qkey (lower bound) in a sorted key array. */
  def lowerBound(keys: Array[Array[Byte]], qkey: Array[Byte]): Int = {
    var lo = 0
    var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (Hilbert.compareKeys(keys(mid), qkey) < 0) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Index of the first entry >= (qkey, id) in (key, id) order, the order
    * of a tree's aligned `keys` and `ids`: where a new entry is inserted.
    */
  def lowerBound(keys: Array[Array[Byte]], ids: Array[Long], qkey: Array[Byte], id: Long): Int = {
    var lo = 0
    var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val c = Hilbert.compareKeys(keys(mid), qkey)
      if (c < 0 || (c == 0 && ids(mid) < id)) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** The α entries nearest to qkey in one-dimensional key order, as
    * [start, end) over `keys`: the window that a greedy merge outward from
    * the insertion point pos takes when it grows one entry at a time toward
    * the numerically closer side, ties going left. Its size is w = min(α, n).
    *
    * The start is found by binary search over s ∈ [max(0, pos − w),
    * min(pos, n − w)]. There, entry s lies left of pos and s + w right of
    * it, and the merge takes s before s + w iff
    * qkey − keys(s) ≤ keys(s + w) − qkey (both sides are sorted by distance
    * from qkey, and ties go left). The window is a prefix of the merge
    * order, so it holds s and not s + w exactly when s ≥ start: the
    * predicate is false below the start and true from it on. A tree costs
    * O(log n + log α) key comparisons, whatever α is.
    *
    * Each probe tests the predicate as the sign of
    * keys(s) + keys(s + w) − 2·qkey in one pass over the three keys from the
    * last byte: per byte, carry = (a + b − 2q + carry) >> 8, an arithmetic
    * shift, so the carry is the floor of the running sum over 256 and the
    * whole sum is non-negative exactly when the final carry is.
    */
  def selectWindow(keys: Array[Array[Byte]], qkey: Array[Byte], alpha: Int): (Int, Int) = {
    require(alpha >= 0, s"alpha must be non-negative, got $alpha")
    val n = keys.length
    val w = math.min(alpha, n)
    val pos = lowerBound(keys, qkey)
    var lo = math.max(0, pos - w)
    var hi = math.min(pos, n - w)
    while (lo < hi) {
      val s = (lo + hi) >>> 1
      val a = keys(s)
      val b = keys(s + w)
      var carry = 0
      var i = qkey.length - 1
      while (i >= 0) {
        carry = ((a(i) & 0xff) + (b(i) & 0xff) - 2 * (qkey(i) & 0xff) + carry) >> 8
        i -= 1
      }
      if (carry >= 0) hi = s else lo = s + 1
    }
    (lo, lo + w)
  }

  // ---- filter pipeline ---------------------------------------------------

  /** A non-negative bound's float bits (order-preserving for non-negative
    * floats) above a position: longs that order by (bound, position), so
    * ties break by position in the window. A survivor keeps the bound's
    * word (`& BoundMask`) and swaps the position for its id.
    */
  private def pack(boundBits: Int, pos: Int): Long = (boundBits.toLong << 32) | pos.toLong

  private final val BoundMask = 0xFFFFFFFF00000000L

  /** Rearranges a[from, from + n) so that a[from, from + k) holds its k
    * smallest values, in no particular order (quickselect with
    * median-of-three pivots).
    */
  private def selectSmallest(a: Array[Long], from: Int, n: Int, k: Int): Unit = {
    if (k <= 0 || k >= n) return
    val t = from + k - 1
    var lo = from
    var hi = from + n - 1
    while (lo < hi) {
      val x = a(lo); val y = a((lo + hi) >>> 1); val z = a(hi)
      val pivot = math.max(math.min(x, y), math.min(math.max(x, y), z))
      var i = lo
      var j = hi
      while (i <= j) {
        while (a(i) < pivot) i += 1
        while (a(j) > pivot) j -= 1
        if (i <= j) {
          val tmp = a(i); a(i) = a(j); a(j) = tmp
          i += 1; j -= 1
        }
      }
      // a[lo, j] <= pivot <= a[i, hi], and a(j + 1 until i) == pivot
      if (t <= j) hi = j
      else if (t >= i) lo = i
      else return
    }
  }

  /** One query's filter and rerank state (Algo. 2 lines 5–16), in
    * primitive arrays sized once per query and reused by every tree.
    *
    * A bound depends only on the query and the object's refdists, not on
    * the tree, so each is computed once per query: `triMemo` and `ptoMemo`
    * hold, by id, the bound's float bits with the sign bit set once known.
    * Per window, the refdists of the ids whose bound is still unknown are
    * gathered, widened to `Double`, into one column per reference. The
    * bound is then computed a reference (Eq. 5) or a reference pair (Eq. 6)
    * at a time, in one loop over the gathered objects that C2 can
    * vectorise (each column is its own array: C2 does not vectorise two
    * offsets into one array). Each lane does the IEEE operations of
    * [[triBound]] or [[ptolemaicBound]] in their order (Java never fuses
    * them into an FMA). With finite distances every term is non-negative
    * and not NaN, where `Math.max` is their `if (b > best) best = b`, so
    * the bits are theirs. [[checkQuery]] keeps NaN and ±Inf coordinates
    * out of queries and indexed objects.
    *
    * A survivor is packed as (bound bits, id), the bound being the one that
    * admitted it (triangular, or Ptolemaic when that filter is on); an id
    * has the same bound in every tree.
    *
    * @param maxWindow the largest window any tree can return, min(α, n)
    * @param nIds      the trees hold ids in [0, nIds)
    */
  private final class Kernel(dq: Array[Double], refMatrix: Array[Array[Double]],
                             refdistsById: Array[Array[Float]], p: QueryParams,
                             maxWindow: Int, trees: Int, nIds: Int) {
    private val m         = dq.length
    private val packed    = new Array[Long](maxWindow)
    private val betaPos   = new Array[Int](if (p.usePtolemaic) math.min(maxWindow, p.beta) else 0)
    private val survivors = new Array[Long](trees * math.min(maxWindow, p.gamma))
    private var nSurvivors = 0
    private val triMemo   = new Array[Int](nIds)
    private val ptoMemo   = new Array[Int](if (p.usePtolemaic) nIds else 0)
    // the objects gathered from a window: ids, refdist columns, bounds so far
    private val gathered  = new Array[Int](maxWindow)
    private val cols      = Array.ofDim[Double](m, maxWindow)
    private val best      = new Array[Double](maxWindow)
    // Eq. 6's reference pairs (i < j) with d(R_i, R_j) > 0, in (i, j) order
    private val pairI     = new Array[Int](if (p.usePtolemaic) m * (m - 1) / 2 else 0)
    private val pairJ     = new Array[Int](pairI.length)
    private var nPairs    = 0
    if (p.usePtolemaic) {
      var i = 0
      while (i < m) {
        var j = i + 1
        while (j < m) {
          if (refMatrix(i)(j) > 0) { pairI(nPairs) = i; pairJ(nPairs) = j; nPairs += 1 }
          j += 1
        }
        i += 1
      }
    }
    // the rerank's group of four: vectors, their ids, their squared distances
    private val group     = new Array[Array[Float]](4)
    private val groupIds  = new Array[Long](4)
    private val sums      = new Array[Double](4)

    /** Gathers into `cols` the refdists of the ids at window positions
      * s + at(i) (s + i when `at` is null), i < n, whose bound in `memo` is
      * still unknown, and zeroes their bounds; returns how many.
      */
    private def gather(ids: Array[Long], s: Int, at: Array[Int], n: Int, memo: Array[Int]): Int = {
      var c = 0
      var i = 0
      while (i < n) {
        val id = ids(s + (if (at == null) i else at(i))).toInt
        if (memo(id) >= 0) {
          val rd = refdistsById(id)
          var r = 0
          while (r < m) { cols(r)(c) = rd(r); r += 1 }
          gathered(c) = id
          best(c) = 0.0
          c += 1
        }
        i += 1
      }
      c
    }

    /** Stores the first c bounds in `memo`, by gathered id, as known. */
    private def remember(c: Int, memo: Array[Int]): Unit = {
      var o = 0
      while (o < c) {
        memo(gathered(o)) = java.lang.Float.floatToIntBits(best(o).toFloat) | Int.MinValue
        o += 1
      }
    }

    /** Eq. 5 for the window [s, s + w)'s ids not yet known; packs the
      * window's (triangular bound, position) into packed[0, w).
      */
    private def triangular(ids: Array[Long], s: Int, w: Int): Unit = {
      val c = gather(ids, s, null, w, triMemo)
      val bs = best
      var r = 0
      while (r < m) {
        val col = cols(r)
        val d = dq(r)
        var o = 0
        while (o < c) { bs(o) = Math.max(bs(o), Math.abs(d - col(o))); o += 1 }
        r += 1
      }
      remember(c, triMemo)
      var i = 0
      while (i < w) { packed(i) = pack(known(triMemo, ids(s + i)), i); i += 1 }
    }

    /** Eq. 6 for the β set's ids (window positions s + betaPos[0, b)) not
      * yet known; packs the β set's (Ptolemaic bound, position) into
      * packed[0, b).
      */
    private def ptolemaic(ids: Array[Long], s: Int, b: Int): Unit = {
      val c = gather(ids, s, betaPos, b, ptoMemo)
      val bs = best
      var k = 0
      while (k < nPairs) {
        val i = pairI(k)
        val j = pairJ(k)
        val ci = cols(i); val cj = cols(j)
        val di = dq(i); val dj = dq(j)
        val den = refMatrix(i)(j)
        var o = 0
        while (o < c) { bs(o) = Math.max(bs(o), Math.abs(di * cj(o) - dj * ci(o)) / den); o += 1 }
        k += 1
      }
      remember(c, ptoMemo)
      var i = 0
      while (i < b) { packed(i) = pack(known(ptoMemo, ids(s + betaPos(i))), betaPos(i)); i += 1 }
    }

    /** The bits of a known bound. */
    private def known(memo: Array[Int], id: Long): Int = memo(id.toInt) & Int.MaxValue

    /** Lines 5–10 for the window [s, e) of one tree: triangular filter,
      * optional Ptolemaic filter, and the γ surviving (bound, id) kept.
      *
      * With the Ptolemaic filter, the triangular pass runs only where β
      * cuts (β < w); otherwise the β set is the whole window. The γ cut
      * selects by (Ptolemaic bound, position); Algo 2 ranks the β set by
      * triangular bound first, which only matters for ties: see
      * [[breakTies]].
      */
    def filter(ids: Array[Long], s: Int, e: Int): Unit = {
      val w = e - s
      if (!p.usePtolemaic) {
        triangular(ids, s, w)
        keep(ids, s, w, math.min(w, p.gamma))
      } else {
        val b = math.min(w, p.beta)
        var i = 0
        if (b < w) {
          triangular(ids, s, w)
          selectSmallest(packed, 0, w, b)
          while (i < b) { betaPos(i) = packed(i).toInt; i += 1 }
        } else while (i < b) { betaPos(i) = i; i += 1 }
        ptolemaic(ids, s, b)
        keep(ids, s, b, math.min(b, p.gamma))
      }
    }

    /** Selects the g smallest of packed[0, n) (position-packed entries of
      * the window at s) and adds them to the survivors as (bound, id).
      */
    private def keep(ids: Array[Long], s: Int, n: Int, g: Int): Unit = {
      selectSmallest(packed, 0, n, g)
      if (p.usePtolemaic) breakTies(ids, s, n, g)
      var i = 0
      while (i < g) {
        survivors(nSurvivors) = (packed(i) & BoundMask) | ids(s + packed(i).toInt)
        nSurvivors += 1
        i += 1
      }
    }

    /** packed[0, g) holds the g smallest of the β set packed[0, b) by
      * (Ptolemaic bound, position). Algo 2 ranks the β set by
      * (triangular bound, position) before the γ cut, so entries tied with
      * the γ-th Ptolemaic bound go in that rank order. Only when such an
      * entry was cut are the tied entries chosen again, by
      * (triangular bound, position); they keep their Ptolemaic bound.
      */
    private def breakTies(ids: Array[Long], s: Int, b: Int, g: Int): Unit = {
      if (g >= b) return
      var cut = 0L
      var i = 0
      while (i < g) { cut = math.max(cut, packed(i) & BoundMask); i += 1 }
      // packed[g, b) is >= cut: its tied entries go to [g, tiedEnd)
      var tiedEnd = g
      i = g
      while (i < b) {
        if ((packed(i) & BoundMask) == cut) { swap(i, tiedEnd); tiedEnd += 1 }
        i += 1
      }
      if (tiedEnd == g) return
      // packed[0, g) is <= cut: its tied entries go to [tiedStart, g)
      var tiedStart = 0
      i = 0
      while (i < g) {
        if ((packed(i) & BoundMask) != cut) { swap(i, tiedStart); tiedStart += 1 }
        i += 1
      }
      i = tiedStart
      while (i < tiedEnd) {
        val pos = packed(i).toInt
        packed(i) = pack(triBits(ids(s + pos).toInt), pos)
        i += 1
      }
      selectSmallest(packed, tiedStart, tiedEnd - tiedStart, g - tiedStart)
      i = tiedStart
      while (i < g) { packed(i) = cut | (packed(i) & ~BoundMask); i += 1 }
    }

    private def swap(i: Int, j: Int): Unit = {
      val t = packed(i); packed(i) = packed(j); packed(j) = t
    }

    /** The triangular bound's bits for one id, through its memo: where β
      * does not cut, the column pass has not run, and only tied entries need
      * this bound.
      */
    private def triBits(id: Int): Int = {
      val memo = triMemo(id)
      if (memo < 0) memo & Int.MaxValue
      else {
        val bits = java.lang.Float.floatToIntBits(triBound(dq, refdistsById(id)).toFloat)
        triMemo(id) = bits | Int.MinValue
        bits
      }
    }

    /** Lines 11–16: the distinct survivors not marked deleted (Sec. 3.6)
      * are the κ candidates; returns their top-k by exact distance,
      * ascending by (distance, id), and κ.
      *
      * Sorting the survivors puts an id's copies side by side and orders
      * the candidates by bound, so near ones come first and `worst`
      * tightens early. They are reranked four at a time by
      * [[Distance.l2sq4]], which gives up on a group once all four are
      * beyond `worst`: [[Distance.TopK.offer]] would reject each of them,
      * so the answer is the full rerank's. A last group of fewer than four
      * is padded with q, whose lanes are never offered.
      */
    def answer(q: Array[Float], getVec: Long => Array[Float], k: Int,
               deleted: scala.collection.Set[Long]): (Array[(Long, Double)], Int) = {
      java.util.Arrays.sort(survivors, 0, nSurvivors)
      val anyDeleted = deleted.nonEmpty
      val top = new Distance.TopK(math.min(k, nSurvivors))
      var filled = 0
      var kappa = 0
      var i = 0
      while (i < nSurvivors) {
        val id = survivors(i) & Int.MaxValue
        if ((i == 0 || survivors(i) != survivors(i - 1)) && !(anyDeleted && deleted.contains(id))) {
          group(filled) = getVec(id)
          groupIds(filled) = id
          filled += 1
          kappa += 1
          if (filled == 4) { rerank(q, top, filled); filled = 0 }
        }
        i += 1
      }
      if (filled > 0) rerank(q, top, filled)
      (top.result(), kappa)
    }

    /** Offers the first `filled` vectors of `group` to `top`, unless all of
      * them are beyond its `worst`.
      */
    private def rerank(q: Array[Float], top: Distance.TopK, filled: Int): Unit = {
      var j = filled
      while (j < 4) { group(j) = q; j += 1 }
      if (Distance.l2sq4(q, group(0), group(1), group(2), group(3), Distance.sqCap(top.worst), sums)
            == q.length) {
        j = 0
        while (j < filled) { top.offer(groupIds(j), math.sqrt(sums(j))); j += 1 }
      }
    }
  }

  /** Wrong-dimension and non-finite vectors (queries, and objects named by
    * `what`) fail here instead of deep in the Hilbert encoder, which would
    * read past a short vector, use a prefix of a long one, or map NaN to
    * cell 0 and ±Inf to a clamped edge cell, and instead of the bounds,
    * where a NaN or infinite refdist makes the column kernel and the scalar
    * bounds disagree. Every `AnnIndex.search` checks its query here too.
    */
  private[repro] def checkQuery(q: Array[Float], dim: Int, what: => String = "query"): Unit = {
    require(q.length == dim, s"$what has ${q.length} dimensions, the index has $dim")
    var i = 0
    while (i < q.length) {
      require(java.lang.Float.isFinite(q(i)), s"$what coordinate $i is ${q(i)}, not finite")
      i += 1
    }
  }

  // ---- search -----------------------------------------------------------

  /** Algo. 2 on the driver: the top-k of q by (distance, id), and the
    * query's cost counters. Ids are `Int`s inside, so the model may hold at
    * most `Int.MaxValue` objects.
    */
  def searchLocal(model: HdIndexModel, q: Array[Float], p: QueryParams,
                  getVec: Long => Array[Float]): (Array[(Long, Double)], QueryStats) = {
    val cfg = model.cfg
    require(model.n <= Int.MaxValue, s"the index holds ${model.n} objects, at most ${Int.MaxValue} are supported")
    checkQuery(q, cfg.dim)
    val dq  = model.refs.map(r => Distance.l2(q, r))
    val kernel = new Kernel(dq, model.refMatrix, model.refdistsById, p,
                            math.min(p.alpha.toLong, model.n).toInt, model.trees.length,
                            model.refdistsById.length)
    var pages = 0L
    var t = 0
    while (t < model.trees.length) {
      val tree  = model.trees(t)
      val qkey  = Hilbert(tree.width, cfg.omega).encodeVector(q, tree.fromDim, cfg.lo, cfg.hi)
      val (s, e) = selectWindow(tree.keys, qkey, p.alpha)
      kernel.filter(tree.ids, s, e)
      pages += model.treeHeight(t) + (e - s + model.leafOrder(t) - 1) / model.leafOrder(t)
      t += 1
    }
    val (ans, kappa) = kernel.answer(q, getVec, p.k, model.deleted)
    (ans, QueryStats(pages, kappa.toLong, kappa))
  }
}
