package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.VecRow

/** One RDB-tree index entry (a leaf-row of the tree): the object's Hilbert
  * key in this tree's subspace, a pointer (the id) to the full descriptor,
  * and — the paper's novelty — the object's distances to the m reference
  * objects, stored *in the leaf* so the distance filters run without extra
  * disk accesses.
  */
final case class IndexEntry(treeId: Int, hkey: Array[Byte], id: Long, refdists: Array[Float])

/** RDB-tree (Reference-Distance B+-tree), Sec. 3.2.
  *
  * The distributed build job produces all τ trees as one range-
  * partitioned, sorted `Dataset[IndexEntry]` (partition ranges over
  * (treeId, hkey, id) play the role of the B+-tree's leaf-page ranges).
  * Leaf page i of a tree holds its sorted entries [i·Ω, (i+1)·Ω).
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

  /** Dimension partitioning P (Sec. 3.1): τ contiguous slices of width
    * η = ceil(ν/τ); the last slice may be narrower.
    * Returns (from, width) per tree.
    */
  def partitions(dim: Int, tau: Int): Array[(Int, Int)] = {
    require(tau >= 1 && tau <= dim, s"tau=$tau out of range for dim=$dim")
    val eta = (dim + tau - 1) / tau
    (0 until tau).toArray.map { t =>
      val from = t * eta
      (from, math.min(eta, dim - from))
    }.filter(_._2 > 0)
  }

  /** Distributed build of all τ trees (Algo. 1 lines 4–10).
    *
    * @param data     database as Dataset[VecRow]
    * @param refs     the m reference objects (vectors), broadcast
    * @param dim,tau,omega,lo,hi  HD-Index parameters / value domain
    * @param pageSize unused, as the entries do not depend on the page size;
    *                 kept because `perfbench/src/Bench.scala` passes it
    *                 positionally
    * @return the entries range-partitioned and sorted within partitions by
    *         (treeId, hkey, id): a global sort, in order under `collect()`
    */
  def build(spark: SparkSession, data: Dataset[VecRow], refs: Array[Array[Float]],
            dim: Int, tau: Int, omega: Int, lo: Double, hi: Double,
            pageSize: Int = 4096): Dataset[IndexEntry] = {
    import spark.implicits._
    val parts  = partitions(dim, tau)
    val bRefs  = spark.sparkContext.broadcast(refs)
    val bParts = spark.sparkContext.broadcast(parts)
    val om     = omega

    // One pass over the data computes the m reference distances and the τ
    // Hilbert keys per object (Algo 1 lines 2, 7–10).
    val entries = data.flatMap { row =>
      val rs = bRefs.value
      val rd = new Array[Float](rs.length)
      var i = 0
      while (i < rs.length) { rd(i) = Distance.l2(row.vec, rs(i)).toFloat; i += 1 }
      bParts.value.iterator.zipWithIndex.map { case ((from, width), t) =>
        val key = Hilbert(width, om).encodeVector(row.vec, from, lo, hi)
        IndexEntry(t, key, row.id, rd)
      }
    }

    val numParts = math.max(spark.sparkContext.defaultParallelism, tau)
    entries
      .repartitionByRange(numParts, $"treeId", $"hkey", $"id")
      .sortWithinPartitions($"treeId", $"hkey", $"id")
  }
}
