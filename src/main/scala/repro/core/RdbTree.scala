package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.VecRow

/** One object's leaf data for all τ RDB-trees: its τ Hilbert keys, one per
  * dimension slice, concatenated in tree order (tree t's key is bytes
  * [[RdbTree.keyOffsets]]`(t)` until `(t + 1)`), a pointer (the id) to the
  * full descriptor, and — the paper's novelty — the object's distances to
  * the m reference objects, stored *in the leaf* so the distance filters
  * run without extra disk accesses. `checksum` is the hash of the vector's
  * float bits (`java.util.Arrays.hashCode`), for the driver to check that
  * the job read the vectors it holds.
  */
final case class ObjectEntry(id: Long, keys: Array[Byte], refdists: Array[Float], checksum: Int)

/** One leaf page of an [[LocalTree]]: its entries' keys back to back, each
  * of the curve's `keyBytes`, and their ids. A page is never written after
  * it is published, so trees share it.
  */
final class LeafPage(val keys: Array[Byte], val ids: Array[Int]) extends Serializable

/** Driver-side view of one RDB-tree: entries in (Hilbert key, id) order, in
  * leaf pages of at most `order` (Ω) entries each; `curve` keys dimensions
  * from `fromDim`. Page p holds the entries from `starts(p)` until
  * `starts(p + 1)`, the last start being n. Reference distances are looked
  * up by id in the model's shared [[Refdists]] (logically replicated per
  * leaf, as the page model assumes).
  *
  * An insert ([[inserted]]) copies the one page it writes, split in two
  * halves when it is full, and the directory (`starts`, `pages`); the new
  * tree shares every other page with the old one (the shadowing of
  * copy-on-write B-trees, Rodeh, ACM TOS 2008).
  */
final class LocalTree private (val treeId: Int, val fromDim: Int, val curve: Hilbert, val order: Int,
                               private[core] val starts: Array[Int],
                               private[core] val pages: Array[LeafPage]) extends Serializable {
  def width: Int = curve.dims

  /** The number of entries n. */
  def n: Int = starts(pages.length)

  /** Read-only views of the entries' keys and ids by position, each access
    * a search of the page directory ([[pageOf]]); a key is read as a copy.
    */
  val keys: LocalTree.Keys = new LocalTree.Keys(this)
  val ids: LocalTree.Ids = new LocalTree.Ids(this)

  /** The page holding position pos, in [0, n): the last one starting at or
    * before it. Pages hold at most Ω entries, so it is page pos / Ω or a
    * later one; it is that one until an insert splits a page before it.
    */
  private[core] def pageOf(pos: Int): Int = {
    if (pos < 0 || pos >= n) throw new IndexOutOfBoundsException(s"position $pos of $n entries")
    var lo = pos / order
    if (starts(lo + 1) > pos) return lo
    lo += 1
    var hi = pages.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (starts(mid) <= pos) lo = mid else hi = mid - 1
    }
    lo
  }

  /** Copies the ids of positions [s, e) to out[0, e − s), one arraycopy per page. */
  def copyIds(s: Int, e: Int, out: Array[Int]): Unit = if (s < e) {
    var p = pageOf(s)
    var pos = s
    while (pos < e) {
      val to = math.min(e, starts(p + 1))
      System.arraycopy(pages(p).ids, pos - starts(p), out, pos - s, to - pos)
      pos = to
      p += 1
    }
  }

  /** Sec. 3.6: this tree with (key, id) inserted before the first greater
    * key, the (key, id) position, as id exceeds every id here. The page is
    * found by its first key: the last page whose first key is at most key.
    */
  def inserted(key: Array[Byte], id: Int): LocalTree = {
    val kb = curve.keyBytes
    require(key.length == kb, s"expected $kb key bytes, got ${key.length}")
    if (pages.isEmpty) return new LocalTree(treeId, fromDim, curve, order, Array(0, 1), Array(new LeafPage(key.clone, Array(id))))
    var p = 0
    var hi = pages.length - 1
    while (p < hi) {
      val mid = (p + hi + 1) >>> 1
      if (java.util.Arrays.compareUnsigned(pages(mid).keys, 0, kb, key, 0, kb) <= 0) p = mid else hi = mid - 1
    }
    val page = pages(p)
    val size = page.ids.length
    var at = 0
    hi = size
    while (at < hi) {
      val mid = (at + hi) >>> 1
      if (java.util.Arrays.compareUnsigned(page.keys, mid * kb, (mid + 1) * kb, key, 0, kb) <= 0) at = mid + 1 else hi = mid
    }
    val nk = new Array[Byte]((size + 1) * kb)
    val ni = new Array[Int](size + 1)
    System.arraycopy(page.keys, 0, nk, 0, at * kb)
    System.arraycopy(key, 0, nk, at * kb, kb)
    System.arraycopy(page.keys, at * kb, nk, (at + 1) * kb, (size - at) * kb)
    System.arraycopy(page.ids, 0, ni, 0, at)
    ni(at) = id
    System.arraycopy(page.ids, at, ni, at + 1, size - at)
    // a full page splits into halves of ⌈(Ω + 1)/2⌉ and ⌊(Ω + 1)/2⌋ entries
    val written =
      if (size < order) Array(new LeafPage(nk, ni))
      else {
        val half = (size + 2) / 2
        Array(new LeafPage(java.util.Arrays.copyOf(nk, half * kb), java.util.Arrays.copyOf(ni, half)),
              new LeafPage(java.util.Arrays.copyOfRange(nk, half * kb, nk.length), java.util.Arrays.copyOfRange(ni, half, ni.length)))
      }
    val extra = written.length - 1
    val np = new Array[LeafPage](pages.length + extra)
    System.arraycopy(pages, 0, np, 0, p)
    System.arraycopy(written, 0, np, p, written.length)
    System.arraycopy(pages, p + 1, np, p + 1 + extra, pages.length - p - 1)
    val ns = new Array[Int](starts.length + extra)
    System.arraycopy(starts, 0, ns, 0, p + 1)
    if (extra == 1) ns(p + 1) = starts(p) + written(0).ids.length
    var i = p + 1
    while (i < starts.length) { ns(i + extra) = starts(i) + 1; i += 1 }
    new LocalTree(treeId, fromDim, curve, order, ns, np)
  }

  /** Sec. 4.4: the pages a query reads here under cfg's m and B: height + ⌈w/Ω⌉. */
  def queryPages(cfg: HdIndexConfig, w: Int): Long = {
    val om = RdbTree.leafOrder(width, curve.order, cfg.m, cfg.pageSize)
    RdbTree.height(n, width, curve.order, cfg.m, cfg.pageSize) + (w + om - 1) / om
  }

  /** Sec. 3.5.2: the bytes of this tree's pages under cfg's m and B. */
  def bytes(cfg: HdIndexConfig): Long =
    RdbTree.levels(n, width, curve.order, cfg.m, cfg.pageSize)(pages => pages) * cfg.pageSize
}

object LocalTree {

  /** The tree over entries already in (key, id) order, `keys` holding
    * their keys back to back: full pages of `order` entries, only the last
    * one partial, so the pages are the paper's (Sec. 3.5.2).
    */
  def load(treeId: Int, fromDim: Int, curve: Hilbert, order: Int, keys: Array[Byte], ids: Array[Int]): LocalTree = {
    val kb = curve.keyBytes
    require(order >= 1, s"a page holds at least one entry, got order $order")
    require(keys.length == ids.length * kb, s"${ids.length} ids need ${ids.length * kb} key bytes, got ${keys.length}")
    val n = ids.length
    val count = (n + order - 1) / order
    val starts = Array.tabulate(count + 1)(p => math.min(n, p * order))
    val pages = Array.tabulate(count) { p =>
      new LeafPage(java.util.Arrays.copyOfRange(keys, starts(p) * kb, starts(p + 1) * kb),
                   java.util.Arrays.copyOfRange(ids, starts(p), starts(p + 1)))
    }
    new LocalTree(treeId, fromDim, curve, order, starts, pages)
  }

  /** A tree's keys by position: [[HdQuery.selectWindow]]'s input. */
  final class Keys private[core] (private[core] val tree: LocalTree) extends IndexedSeq[Array[Byte]] with Serializable {
    def length: Int = tree.n
    def apply(i: Int): Array[Byte] = {
      val p = tree.pageOf(i)
      val kb = tree.curve.keyBytes
      val from = (i - tree.starts(p)) * kb
      java.util.Arrays.copyOfRange(tree.pages(p).keys, from, from + kb)
    }
  }

  /** A tree's ids by position. */
  final class Ids private[core] (tree: LocalTree) extends IndexedSeq[Int] with Serializable {
    def length: Int = tree.n
    def apply(i: Int): Int = {
      val p = tree.pageOf(i)
      tree.pages(p).ids(i - tree.starts(p))
    }
  }
}

/** RDB-tree (Reference-Distance B+-tree), Sec. 3.2: the one module that
  * knows a tree's layout (slices, curves, (key, id) order, page shape).
  *
  * The distributed build job computes each object's τ keys and m reference
  * distances once, as one [[ObjectEntry]]; the driver then sorts each tree
  * by (key, id) and bulk-loads it into full leaf pages ([[trees]]).
  */
object RdbTree {

  /** Eq. 4: leaf order Ω — the largest integer with
    * (η·ω/8 + 4m + 8)·Ω + 16 + 1 ≤ B. Reproduces Table 3 exactly.
    */
  def leafOrder(eta: Int, omega: Int, m: Int, pageSize: Int = 4096): Int = {
    val entryBytes = eta * omega / 8.0 + 4.0 * m + 8.0
    val om = math.floor((pageSize - 17) / entryBytes).toInt
    require(om >= 1, s"page size $pageSize too small for entry of $entryBytes bytes")
    om
  }

  /** Branching factor θ of internal nodes: key + child pointer per entry. */
  def internalFanout(eta: Int, omega: Int, pageSize: Int = 4096): Int = {
    val entryBytes = eta * omega / 8.0 + 8.0
    math.max(2, math.floor((pageSize - 17) / entryBytes).toInt)
  }

  /** Σ f(pages) over the levels of a tree of n entries, ⌈n/Ω⌉ leaves then
    * ⌈·/θ⌉ pages per level up to the root: f = 1 gives the height.
    */
  private[core] def levels(n: Long, eta: Int, omega: Int, m: Int, pageSize: Int)(f: Long => Long): Long = {
    val om    = leafOrder(eta, omega, m, pageSize)
    val theta = internalFanout(eta, omega, pageSize)
    var level = (n + om - 1) / om
    var sum = f(level)
    while (level > 1) { level = (level + theta - 1) / theta; sum += f(level) }
    sum
  }

  /** Height of a tree over n objects (levels above the leaves + leaf level). */
  def height(n: Long, eta: Int, omega: Int, m: Int, pageSize: Int = 4096): Int =
    levels(n, eta, omega, m, pageSize)(_ => 1).toInt

  /** η = ceil(ν/τ), the width of every dimension slice but the last.
    * Fails unless all τ slices are non-empty, (τ − 1)·η < ν: for some
    * (ν, τ), such as (5, 4), the first τ − 1 slices already cover ν.
    */
  def sliceWidth(dim: Int, tau: Int): Int = {
    require(tau >= 1 && tau <= dim, s"tau=$tau out of range for dim=$dim")
    val eta = (dim + tau - 1) / tau
    require((tau - 1) * eta < dim,
            s"dim=$dim in tau=$tau slices of eta=$eta dimensions leaves the last slice empty")
    eta
  }

  /** Dimension partitioning P (Sec. 3.1): τ contiguous slices of width
    * η = ceil(ν/τ); the last slice may be narrower, never empty.
    * Returns (from, width) per tree.
    */
  def partitions(dim: Int, tau: Int): Array[(Int, Int)] = {
    val eta = sliceWidth(dim, tau)
    Array.tabulate(tau)(t => (t * eta, math.min(eta, dim - t * eta)))
  }

  /** Each tree's first dimension and order-ω curve over its [[partitions]] slice. */
  def curves(dim: Int, tau: Int, omega: Int): Array[(Int, Hilbert)] =
    partitions(dim, tau).map { case (from, width) => (from, Hilbert(width, omega)) }

  /** Where each tree's key starts in an [[ObjectEntry]]'s `keys`: τ + 1
    * offsets, the last being the total length.
    */
  def keyOffsets(dim: Int, tau: Int, omega: Int): Array[Int] =
    curves(dim, tau, omega).scanLeft(0) { case (off, (_, curve)) => off + curve.keyBytes }

  /** Distributed part of the build of all τ trees (Algo. 1 lines 4–10): one
    * map-only job, one entry per object, with no shuffle.
    *
    * @param data     database as Dataset[VecRow]
    * @param refs     the m reference objects (vectors), broadcast
    * @param dim,tau,omega,lo,hi  HD-Index parameters / value domain
    * @param pageSize unused, as the entries do not depend on the page size;
    *                 kept because `perfbench/src/Bench.scala` passes it
    *                 positionally
    * @return one entry per object, in the input's order
    */
  def build(spark: SparkSession, data: Dataset[VecRow], refs: Array[Array[Float]],
            dim: Int, tau: Int, omega: Int, lo: Double, hi: Double,
            pageSize: Int = 4096): Dataset[ObjectEntry] = {
    import spark.implicits._
    val curves = RdbTree.curves(dim, tau, omega)
    val offs   = keyOffsets(dim, tau, omega)
    val bRefs  = spark.sparkContext.broadcast(refs)

    // One pass over the data computes the m reference distances and the τ
    // Hilbert keys per object (Algo 1 lines 2, 7–10).
    data.map { row =>
      val rs = bRefs.value
      val rd = new Array[Float](rs.length)
      var i = 0
      while (i < rs.length) { rd(i) = Distance.l2(row.vec, rs(i)).toFloat; i += 1 }
      val keys = new Array[Byte](offs.last)
      var t = 0
      while (t < curves.length) {
        val (from, h) = curves(t)
        System.arraycopy(h.encodeVector(row.vec, from, lo, hi), 0, keys, offs(t), h.keyBytes)
        t += 1
      }
      ObjectEntry(row.id, keys, rd, java.util.Arrays.hashCode(row.vec))
    }
  }

  /** The τ trees over `byId`, the entries of ids 0 until n: each a (key, id)
    * sort of the ids, a total order, so the trees do not depend on Spark's
    * partitioning, bulk-loaded into pages of Eq. 4's Ω ([[LocalTree.load]]).
    * Keys are copied in tree order, so no entry stays alive.
    */
  def trees(byId: Array[ObjectEntry], cfg: HdIndexConfig): Array[LocalTree] = {
    val offs = keyOffsets(cfg.dim, cfg.tau, cfg.omega)
    curves(cfg.dim, cfg.tau, cfg.omega).zipWithIndex.map { case ((from, curve), t) =>
      val (start, end) = (offs(t), offs(t + 1))
      val sorted = Array.tabulate[Integer](byId.length)(Integer.valueOf)
      java.util.Arrays.sort(sorted, (a: Integer, b: Integer) => {
        // unsigned lexicographic, as Hilbert.compareKeys
        val c = java.util.Arrays.compareUnsigned(byId(a).keys, start, end, byId(b).keys, start, end)
        if (c != 0) c else a.compareTo(b)
      })
      val kb = end - start
      val keys = new Array[Byte](byId.length * kb)
      var i = 0
      while (i < sorted.length) { System.arraycopy(byId(sorted(i)).keys, start, keys, i * kb, kb); i += 1 }
      LocalTree.load(t, from, curve, leafOrder(curve.dims, cfg.omega, cfg.m, cfg.pageSize), keys, sorted.map(_.intValue))
    }
  }
}
