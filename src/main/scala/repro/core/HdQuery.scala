package repro.core

/** Query-time parameters (Algo. 2): per tree, the α key-nearest entries
  * are cut to β by the triangular bound (Eq. 5), then to γ by the
  * Ptolemaic bound (Eq. 6). Each filter runs only where its cut cuts, so
  * β = γ is triangular-only filtering and γ < β turns the Ptolemaic filter
  * on. Paper recommendations (Sec. 5.2): triangular-only with α/γ = 4;
  * with the Ptolemaic filter, α/β = 1 and β/γ = 4.
  */
final case class QueryParams(k: Int, alpha: Int, beta: Int, gamma: Int) {
  require(k > 0, s"k must be positive, got $k")
  require(0 < gamma && gamma <= beta && beta <= alpha,
          s"need 0 < gamma <= beta <= alpha, got alpha=$alpha beta=$beta gamma=$gamma")

  /** Whether the Ptolemaic filter can cut: γ < β. */
  def usePtolemaic: Boolean = gamma < beta
}

object QueryParams {
  /** The paper's recommended ratios (Sec. 5.2) for the caller's α:
    * triangular only, β = γ = max(k, α/4); with the Ptolemaic filter,
    * β = α and γ = max(k, α/4), which cuts (γ < β) whenever α > max(k, α/4).
    */
  def recommended(k: Int, alpha: Int, usePtolemaic: Boolean = false): QueryParams = {
    val gamma = math.max(k, alpha / 4)
    QueryParams(k, alpha, if (usePtolemaic) alpha else gamma, gamma)
  }
}

/** Per-query cost counters using the paper's disk model (Sec. 4.4.1):
  * leaf pages touched (tree descents + sequential leaf scan of the α-window)
  * and random accesses for the κ candidate descriptors.
  */
final case class QueryStats(leafPages: Long, randomAccesses: Long, kappa: Int)

/** kANN querying over a built HD-Index (Algo. 2). [[searchLocal]] walks
  * the driver-side sorted trees. Per tree, it chooses the α-window by one
  * binary search ([[selectWindow]]: O(log n) probes). The rest of a query
  * runs in primitive arrays reused across the τ trees. Each
  * object's bounds are computed once per query and remembered by id: per
  * window, the unknown ones in column loops over the gathered refdists, a
  * reference or a reference pair at a time, bit for bit [[triBound]] and
  * [[ptolemaicBound]]. Each filter runs only where its cut cuts, by
  * branch-free in-place selection over packed (bound, position) longs: the
  * triangular one where β < w, the Ptolemaic one where γ < min(w, β), and
  * there triangular bounds rank only the entries tied at the γ cut, as
  * Algo 2's order requires. The arrays are one workspace per thread,
  * reused by its queries: memo slots carry the query's epoch, so a query
  * clears nothing, and an id→slot table admits each id to the survivors
  * once and counts the trees whose γ cut kept it. The exact rerank takes the survivors most
  * trees kept first (the collision count of C2LSH, Gan et al., SIGMOD
  * 2012), four candidates at a time ([[Distance.l2sq4]]), gives up on a
  * group once all four are beyond the current k-th distance, and keeps the
  * top k by (distance, id) in a [[Distance.TopK]]: the answer is the full
  * rerank's, bit for bit.
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

  /** The α entries nearest to qkey in one-dimensional key order, as
    * [start, end) over `keys`: the window that a greedy merge outward from
    * qkey's insertion point takes when it grows one entry at a time toward
    * the numerically closer side, ties going left. Its size is w = min(α, n).
    *
    * The start is the first s ∈ [0, n − w) with keys(s) + keys(s + w) ≥
    * 2·qkey, else n − w: one binary search, as both keys grow with s. Where
    * s lies left of qkey and s + w right of it, the predicate says the merge
    * takes s before s + w (both sides are sorted by distance from qkey, and
    * ties go left), so the window, a prefix of the merge order, holds s and
    * not s + w exactly when s ≥ start; further left both keys are below
    * qkey, further right neither is. O(log n) probes, whatever α is.
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
    var lo = 0
    var hi = n - w
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
    * ties break by position in the window.
    */
  private def pack(boundBits: Int, pos: Int): Long = (boundBits.toLong << 32) | pos.toLong

  private final val HighWord = 0xFFFFFFFF00000000L

  /** Rearranges a[from, from + n) so that a[from, from + k) holds its k
    * smallest values, in no particular order. Quickselect whose partition
    * has no data-dependent branch (Lomuto's: swap each value to the store
    * index, then advance it by the comparison; as BlockQuicksort, Edelkamp
    * & Weiß, ESA 2016, argues, a mispredicted branch per value is what
    * costs). The median of three is the pivot, placed at its final index
    * after each round, so a round settles at least one value even in a run
    * of equal values (the kernel's packed values are distinct).
    */
  private[core] def selectSmallest(a: Array[Long], from: Int, n: Int, k: Int): Unit = {
    if (k <= 0 || k >= n) return
    val t = from + k - 1
    var lo = from
    var hi = from + n - 1
    while (lo < hi) {
      // a(lo) <= a(hi) <= a(mid): the median of the three at hi
      val mid = (lo + hi) >>> 1
      if (a(mid) < a(lo)) swap(a, mid, lo)
      if (a(hi) < a(lo)) swap(a, hi, lo)
      if (a(mid) < a(hi)) swap(a, mid, hi)
      val pivot = a(hi)
      var store = lo
      var i = lo
      while (i < hi) {
        val x = a(i)
        a(i) = a(store)
        a(store) = x
        store += (if (x < pivot) 1 else 0)
        i += 1
      }
      // a[lo, store) < pivot <= a[store, hi)
      a(hi) = a(store)
      a(store) = pivot
      if (t < store) hi = store - 1
      else if (t > store) lo = store + 1
      else return
    }
  }

  private def swap(a: Array[Long], i: Int, j: Int): Unit = {
    val t = a(i); a(i) = a(j); a(j) = t
  }

  /** One thread's filter and rerank workspace (Algo. 2 lines 5–16): primitive
    * arrays that [[start]] grows to the query's (n, τ, α, β, γ, m) and that
    * every later query on the thread reuses, so a query allocates nothing
    * that grows with n. It holds no reference to a model, a query or a
    * vector between queries: [[finish]] drops them.
    *
    * A bound depends only on the query and the object's refdists, not on
    * the tree, so each is computed once per query: `triMemo` and `ptoMemo`
    * hold, by id, a slot with the query's epoch in the high word and the
    * bound's float bits in the low word. A slot is known only when its
    * epoch is the query's, so a query bumps the epoch instead of clearing
    * the memos (the version-tagged visited list of hnswlib, Malkov &
    * Yashunin, IEEE TPAMI 2020). `slotOf` (another 8 B per id) is stamped
    * the same way and holds an id's index among the survivors, so each id
    * enters once (the survivors are the distinct candidates) and `hits`
    * counts the trees whose γ cut kept it. All three are cleared once when
    * the epoch would wrap.
    *
    * Per window, each filter runs only where its cut cuts ([[filter]]), so
    * a window that no cut shrinks reads no refdist. A known bound is packed
    * as it is read from its memo; the refdists of the ids whose bound is
    * still unknown are gathered, widened to `Double`, into one column per
    * reference. The bound is then computed
    * a reference (Eq. 5) or a reference pair (Eq. 6) at a time, in one loop
    * over the gathered objects that C2 can vectorise (each column is its own
    * array: C2 does not vectorise two offsets into one array). Each lane
    * does the IEEE operations of [[triBound]] or [[ptolemaicBound]] in their
    * order (Java never fuses them into an FMA). With finite distances every
    * term is non-negative and not NaN, where `Math.max` is their
    * `if (b > best) best = b`, so the bits are theirs. [[checkQuery]] keeps
    * NaN and ±Inf coordinates out of queries and indexed objects.
    */
  private[core] final class Kernel {
    /** The running query's epoch, in [1, Int.MaxValue]; a slot of epoch 0
      * was never written.
      */
    private[core] var epoch = 0
    private var stamp     = 0L
    /** Whether a query is running on this kernel. */
    var busy              = false
    /** Coordinates the running query's rerank has summed, over every
      * candidate it computed a distance for (a stage counter for benches).
      */
    private[core] var rerankCoords = 0L
    // the running query's parameters and model tables
    private var beta      = 0
    private var gamma     = 0
    private var refMatrix: Array[Array[Double]] = null
    private var refdistsById: Array[Array[Float]] = null
    private var m         = 0
    private var dq        = new Array[Double](0)
    private var packed    = new Array[Long](0)
    // the distinct survivors' ids in admission order, and their hit counts
    private var survivors = new Array[Int](0)
    private var hits      = new Array[Int](0)
    private var nSurvivors = 0
    // the survivors by hit count, most first, and the counting sort's buckets
    private var order     = new Array[Int](0)
    private var buckets   = new Array[Int](0)
    private var triMemo   = new Array[Long](0)
    private var ptoMemo   = new Array[Long](0)
    private var slotOf    = new Array[Long](0)
    // the objects gathered from a window: ids, where their packed entries
    // are, refdist columns, bounds so far
    private var gathered  = new Array[Int](0)
    private var gatheredAt = new Array[Int](0)
    private var cols      = new Array[Array[Double]](0)
    private var best      = new Array[Double](0)
    // the rerank's group of four: vectors, their ids, their squared distances
    private val group     = new Array[Array[Float]](4)
    private val groupIds  = new Array[Long](4)
    private val sums      = new Array[Double](4)

    /** Begins q's query on `model` under p: the next epoch, the reference
      * distances, and every array grown to fit.
      */
    def start(model: HdIndexModel, q: Array[Float], p: QueryParams): Unit = {
      busy = true
      if (epoch == Int.MaxValue) {
        java.util.Arrays.fill(triMemo, 0L)
        java.util.Arrays.fill(ptoMemo, 0L)
        java.util.Arrays.fill(slotOf, 0L)
        epoch = 0
      }
      epoch += 1
      stamp = epoch.toLong << 32
      rerankCoords = 0L
      beta = p.beta
      gamma = p.gamma
      refMatrix = model.refMatrix
      refdistsById = model.refdistsById
      m = model.refs.length
      if (dq.length != m) dq = new Array[Double](m)
      var r = 0
      while (r < m) { dq(r) = Distance.l2(q, model.refs(r)); r += 1 }
      val w = math.min(p.alpha, model.n)
      if (w > packed.length || m > cols.length) {
        val cap = math.max(w, packed.length)
        packed = new Array[Long](cap)
        gathered = new Array[Int](cap); gatheredAt = new Array[Int](cap)
        best = new Array[Double](cap); cols = Array.ofDim[Double](math.max(m, cols.length), cap)
      }
      val cut = model.trees.length * math.min(w, gamma)
      if (cut > survivors.length) {
        survivors = new Array[Int](cut); hits = new Array[Int](cut); order = new Array[Int](cut)
      }
      if (model.trees.length >= buckets.length) buckets = new Array[Int](model.trees.length + 1)
      nSurvivors = 0
      triMemo = fit(triMemo, refdistsById.length)
      slotOf = fit(slotOf, refdistsById.length)
      if (p.usePtolemaic) ptoMemo = fit(ptoMemo, refdistsById.length)
    }

    /** `memo`, or a larger empty one when it holds fewer than n slots: at
      * least n, and half as large again as before, so a model that grows
      * by inserts does not cost a new memo per query.
      */
    private def fit(memo: Array[Long], n: Int): Array[Long] =
      if (memo.length >= n) memo
      else new Array[Long](math.max(n, math.min(Int.MaxValue - 8L, memo.length * 3L / 2).toInt))

    /** Ends the query: drops its model tables and vectors. */
    def finish(): Unit = {
      refMatrix = null
      refdistsById = null
      var j = 0
      while (j < 4) { group(j) = null; j += 1 }
      busy = false
    }

    /** Packs (bound, position) into packed(i) for the window entries at
      * positions s + pos, pos being packed(i)'s low word, i < n: at once
      * when the bound is known in `memo`, else only the position, for
      * [[remember]] to complete. The unknown ones' refdists are gathered
      * into `cols`, their ids into `gathered` and their i into `gatheredAt`,
      * and their bounds zeroed; returns how many.
      */
    private def gather(ids: Array[Int], s: Int, n: Int, memo: Array[Long]): Int = {
      var c = 0
      var i = 0
      while (i < n) {
        val pos = packed(i).toInt
        val id = ids(s + pos)
        val slot = memo(id)
        if ((slot & HighWord) == stamp) packed(i) = pack(slot.toInt, pos)
        else {
          val rd = refdistsById(id)
          var r = 0
          while (r < m) { cols(r)(c) = rd(r); r += 1 }
          gathered(c) = id
          gatheredAt(c) = i
          best(c) = 0.0
          packed(i) = pos.toLong
          c += 1
        }
        i += 1
      }
      c
    }

    /** Stores the first c bounds in `memo`, by gathered id, as known, and
      * adds them to their packed entries.
      */
    private def remember(c: Int, memo: Array[Long]): Unit = {
      var o = 0
      while (o < c) {
        val bits = java.lang.Float.floatToIntBits(best(o).toFloat)
        memo(gathered(o)) = stamp | bits
        packed(gatheredAt(o)) |= bits.toLong << 32
        o += 1
      }
    }

    /** Eq. 5 for the ids of the window entries at packed[0, w)'s positions
      * not yet known; packs their (triangular bound, position) there.
      */
    private def triangular(ids: Array[Int], s: Int, w: Int): Unit = {
      val c = gather(ids, s, w, triMemo)
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
    }

    /** Eq. 6 for the ids of the β set (the window entries at packed[0, b)'s
      * positions) not yet known; packs their (Ptolemaic bound, position)
      * there. Pairs at distance 0 are skipped, as in [[ptolemaicBound]].
      */
    private def ptolemaic(ids: Array[Int], s: Int, b: Int): Unit = {
      val c = gather(ids, s, b, ptoMemo)
      val bs = best
      // the pairs i < j in (i, j) order, as one loop over j that carries i:
      // nested per i, the pass ran slower on sift10k-churn
      var i = 0
      var j = 1
      while (j < m) {
        val den = refMatrix(i)(j)
        if (den > 0) {
          val ci = cols(i); val cj = cols(j)
          val di = dq(i); val dj = dq(j)
          var o = 0
          while (o < c) { bs(o) = Math.max(bs(o), Math.abs(di * cj(o) - dj * ci(o)) / den); o += 1 }
        }
        j += 1
        if (j == m) { i += 1; j = i + 1 }
      }
      remember(c, ptoMemo)
    }

    /** Lines 5–10 for the window [s, e) of one tree: each filter runs
      * only where its cut cuts. The triangular filter cuts the window to
      * b = min(w, β) where β < w; else the β set is the whole window. The
      * Ptolemaic filter cuts the β set to g = min(b, γ) where γ < b; its cut
      * selects by (Ptolemaic bound, position), and Algo 2 ranks the β set by
      * triangular bound first, which only matters for ties: see
      * [[breakTies]]. Each id of the g kept entries gets a hit, and those
      * not yet kept by an earlier tree are added to the survivors.
      */
    def filter(ids: Array[Int], s: Int, e: Int): Unit = {
      val w = e - s
      var i = 0
      while (i < w) { packed(i) = i; i += 1 }
      val b = math.min(w, beta)
      if (b < w) {
        triangular(ids, s, w)
        selectSmallest(packed, 0, w, b)
      }
      val g = math.min(b, gamma)
      if (g < b) {
        ptolemaic(ids, s, b)
        selectSmallest(packed, 0, b, g)
        breakTies(ids, s, b, g)
      }
      i = 0
      while (i < g) {
        val id = ids(s + packed(i).toInt)
        val slot = slotOf(id)
        if ((slot & HighWord) == stamp) hits(slot.toInt) += 1
        else {
          slotOf(id) = stamp | nSurvivors
          survivors(nSurvivors) = id
          hits(nSurvivors) = 1
          nSurvivors += 1
        }
        i += 1
      }
    }

    /** packed[0, g), g < b, holds the g smallest of the β set packed[0, b) by
      * (Ptolemaic bound, position). Algo 2 ranks the β set by
      * (triangular bound, position) before the γ cut, so entries tied with
      * the γ-th Ptolemaic bound go in that rank order. Only when such an
      * entry was cut are the tied entries chosen again, by
      * (triangular bound, position); they keep their Ptolemaic bound.
      */
    private def breakTies(ids: Array[Int], s: Int, b: Int, g: Int): Unit = {
      var cut = 0L
      var i = 0
      while (i < g) { cut = math.max(cut, packed(i) & HighWord); i += 1 }
      // packed[g, b) is >= cut: its tied entries go to [g, tiedEnd)
      var tiedEnd = g
      i = g
      while (i < b) {
        if ((packed(i) & HighWord) == cut) { swap(packed, i, tiedEnd); tiedEnd += 1 }
        i += 1
      }
      if (tiedEnd == g) return
      // packed[0, g) is <= cut: its tied entries go to [tiedStart, g)
      var tiedStart = 0
      i = 0
      while (i < g) {
        if ((packed(i) & HighWord) != cut) { swap(packed, i, tiedStart); tiedStart += 1 }
        i += 1
      }
      i = tiedStart
      while (i < tiedEnd) {
        val pos = packed(i).toInt
        packed(i) = pack(triBits(ids(s + pos)), pos)
        i += 1
      }
      selectSmallest(packed, tiedStart, tiedEnd - tiedStart, g - tiedStart)
      i = tiedStart
      while (i < g) { packed(i) = cut | (packed(i) & ~HighWord); i += 1 }
    }

    /** The triangular bound's bits for one id, through its memo: where β
      * does not cut, the column pass has not run, and only tied entries need
      * this bound.
      */
    private def triBits(id: Int): Int = {
      val slot = triMemo(id)
      if ((slot & HighWord) == stamp) slot.toInt
      else {
        val bits = java.lang.Float.floatToIntBits(triBound(dq, refdistsById(id)).toFloat)
        triMemo(id) = stamp | bits
        bits
      }
    }

    /** Lines 11–16: the survivors not marked deleted (Sec. 3.6) are the κ
      * candidates; returns their top-k by exact distance, ascending by
      * (distance, id), and κ.
      *
      * The survivors that more trees kept are reranked first (a counting
      * sort by hit count, most first, in admission order within a count):
      * they tend to be nearer, so `worst` tightens early. They are reranked
      * four at a time by [[Distance.l2sq4]], which gives up on a group once
      * all four are beyond `worst`: [[Distance.TopK.offer]] would reject
      * each of them. `TopK` orders by (distance, id), a total order, so the
      * answer is the full rerank's in any order. A last group of fewer than
      * four is padded with q, whose lanes are never offered.
      */
    def answer(q: Array[Float], getVec: Long => Array[Float], k: Int,
               deleted: scala.collection.Set[Long]): (Array[(Long, Double)], Int) = {
      java.util.Arrays.fill(buckets, 0)
      var i = 0
      while (i < nSurvivors) { buckets(hits(i)) += 1; i += 1 }
      // each count's first index in `order`, counts descending
      var at = 0
      var h = buckets.length - 1
      while (h > 0) { val c = buckets(h); buckets(h) = at; at += c; h -= 1 }
      i = 0
      while (i < nSurvivors) {
        val b = hits(i)
        order(buckets(b)) = survivors(i)
        buckets(b) += 1
        i += 1
      }
      val anyDeleted = deleted.nonEmpty
      val top = new Distance.TopK(math.min(k, nSurvivors))
      var filled = 0
      var kappa = 0
      i = 0
      while (i < nSurvivors) {
        val id = order(i).toLong
        if (!(anyDeleted && deleted.contains(id))) {
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
      val summed = Distance.l2sq4(q, group(0), group(1), group(2), group(3), Distance.sqCap(top.worst), sums)
      rerankCoords += summed.toLong * filled
      if (summed == q.length) {
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

  /** Each thread's kernel, reused by its queries. */
  private val kernels = ThreadLocal.withInitial[Kernel](() => new Kernel)

  /** The calling thread's kernel. */
  private[core] def threadKernel: Kernel = kernels.get

  /** Algo. 2 on the driver: the top-k of q by (distance, id), and the
    * query's cost counters. The query runs on the calling thread's kernel;
    * a `getVec` that queries again on the same thread gets a fresh one.
    */
  def searchLocal(model: HdIndexModel, q: Array[Float], p: QueryParams,
                  getVec: Long => Array[Float]): (Array[(Long, Double)], QueryStats) = {
    val cfg = model.cfg
    checkQuery(q, cfg.dim)
    val cached = kernels.get
    val kernel = if (cached.busy) new Kernel else cached
    try {
      kernel.start(model, q, p)
      var pages = 0L
      var t = 0
      while (t < model.trees.length) {
        val tree   = model.trees(t)
        val (s, e) = selectWindow(tree.keys, tree.curve.encodeVector(q, tree.fromDim, cfg.lo, cfg.hi), p.alpha)
        kernel.filter(tree.ids, s, e)
        pages += tree.queryPages(cfg, e - s)
        t += 1
      }
      val (ans, kappa) = kernel.answer(q, getVec, p.k, model.deleted)
      (ans, QueryStats(pages, kappa.toLong, kappa))
    } finally kernel.finish()
  }
}
