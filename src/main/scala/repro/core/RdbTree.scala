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

/** Driver-side view of one RDB-tree: entries in (Hilbert key, id) order.
  * `keys`, `ids` (in [0, n)) are aligned; `curve` keys dimensions from
  * `fromDim`. Reference distances are looked up by id in the model's shared
  * table (logically replicated per leaf, as the page model assumes).
  */
final case class LocalTree(treeId: Int, fromDim: Int, curve: Hilbert,
                           keys: Array[Array[Byte]], ids: Array[Int]) {
  def width: Int = curve.dims

  /** Sec. 3.6: this tree with (key, id) inserted, copy-on-write, before the
    * first greater key: the (key, id) position, as id exceeds every id here.
    */
  def inserted(key: Array[Byte], id: Int): LocalTree = {
    var lo = 0
    var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (Hilbert.compareKeys(keys(mid), key) <= 0) lo = mid + 1 else hi = mid
    }
    val nk = new Array[Array[Byte]](keys.length + 1)
    val ni = new Array[Int](ids.length + 1)
    System.arraycopy(keys, 0, nk, 0, lo); nk(lo) = key
    System.arraycopy(keys, lo, nk, lo + 1, keys.length - lo)
    System.arraycopy(ids, 0, ni, 0, lo); ni(lo) = id
    System.arraycopy(ids, lo, ni, lo + 1, ids.length - lo)
    copy(keys = nk, ids = ni)
  }

  /** Sec. 4.4: the pages a query reads here under cfg's m and B: height + ⌈w/Ω⌉. */
  def queryPages(cfg: HdIndexConfig, w: Int): Long = {
    val om = RdbTree.leafOrder(width, curve.order, cfg.m, cfg.pageSize)
    RdbTree.height(keys.length, width, curve.order, cfg.m, cfg.pageSize) + (w + om - 1) / om
  }

  /** Sec. 3.5.2: the bytes of this tree's pages under cfg's m and B. */
  def bytes(cfg: HdIndexConfig): Long =
    RdbTree.levels(keys.length, width, curve.order, cfg.m, cfg.pageSize)(pages => pages) * cfg.pageSize
}

/** RDB-tree (Reference-Distance B+-tree), Sec. 3.2: the one module that
  * knows a tree's layout (slices, curves, (key, id) order, page shape).
  *
  * The distributed build job computes each object's τ keys and m reference
  * distances once, as one [[ObjectEntry]]; the driver then sorts each tree
  * by (key, id) ([[trees]]). Leaf page i of a tree holds its sorted entries
  * [i·Ω, (i+1)·Ω).
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
    * partitioning. Keys are copied in tree order, so no entry stays alive.
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
      LocalTree(t, from, curve, sorted.map(id => java.util.Arrays.copyOfRange(byId(id).keys, start, end)), sorted.map(_.intValue))
    }
  }
}
