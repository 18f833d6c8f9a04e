package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.VecRow

/** One object's leaf data for all τ RDB-trees: its τ Hilbert keys, one per
  * dimension slice, concatenated in tree order (tree t's key is bytes
  * [[RdbTree.keyOffsets]]`(t)` until `(t + 1)`), a pointer (the id) to the
  * full descriptor, and — the paper's novelty — the object's distances to
  * the m reference objects, stored *in the leaf* so the distance filters
  * run without extra disk accesses.
  */
final case class ObjectEntry(id: Long, keys: Array[Byte], refdists: Array[Float])

/** RDB-tree (Reference-Distance B+-tree), Sec. 3.2.
  *
  * The distributed build job computes each object's τ keys and m reference
  * distances once, as one [[ObjectEntry]]; the driver then sorts each tree
  * by (key, id) ([[HdIndex.build]]). Leaf page i of a tree holds its sorted
  * entries [i·Ω, (i+1)·Ω).
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

  /** Height of a tree over n objects (levels above the leaves + leaf level). */
  def height(n: Long, eta: Int, omega: Int, m: Int, pageSize: Int = 4096): Int = {
    val leaves = math.max(1L, (n + leafOrder(eta, omega, m, pageSize) - 1) / leafOrder(eta, omega, m, pageSize))
    val theta  = internalFanout(eta, omega, pageSize)
    var h = 1
    var nodes = leaves
    while (nodes > 1) { nodes = (nodes + theta - 1) / theta; h += 1 }
    h
  }

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

  /** Where each tree's key starts in an [[ObjectEntry]]'s `keys`: τ + 1
    * offsets, the last being the total length.
    */
  def keyOffsets(dim: Int, tau: Int, omega: Int): Array[Int] =
    partitions(dim, tau).scanLeft(0) { case (off, (_, width)) => off + Hilbert(width, omega).keyBytes }

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
    val curves = partitions(dim, tau).map { case (from, width) => (from, Hilbert(width, omega)) }
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
      ObjectEntry(row.id, keys, rd)
    }
  }
}
