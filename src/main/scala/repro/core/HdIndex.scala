package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}

/** HD-Index build configuration. The references are chosen by SSS, and
  * m defaults to the paper's recommendation (Sec. 5.2: m = 10); m = 0 is
  * Multicurves' reference-free index.
  */
final case class HdIndexConfig(
    dim: Int, tau: Int, omega: Int, lo: Double, hi: Double, m: Int = 10) {
  // Hilbert.encodeVector scales by 1 / (hi − lo): an empty or non-finite
  // domain would map every vector to one clamped cell
  require(java.lang.Double.isFinite(lo) && java.lang.Double.isFinite(hi) && lo < hi,
          s"need finite lo < hi, got lo=$lo hi=$hi")
  // m = 0 is a reference-free index (Multicurves)
  require(m >= 0, s"m must be non-negative, got $m")
  // τ trees, one per non-empty dimension slice
  RdbTree.sliceWidth(dim, tau)

  /** SSS's spread fraction f (Sec. 5.2: f = 0.3). */
  def f: Double = 0.3
  /** Disk page size B in bytes (Sec. 5.2: B = 4096). */
  def pageSize: Int = 4096
  /** Seed of SSS's d_max estimate and first reference. */
  def seed: Long = 7
}

/** Driver-side view of one RDB-tree: entries in global Hilbert-key order.
  * `keys`, `ids` (in [0, n)) are aligned; reference distances are looked up
  * by id in the model's shared table (logically replicated per leaf, as the
  * size accounting's per-leaf layout assumes).
  */
final case class LocalTree(treeId: Int, fromDim: Int, width: Int,
                           keys: Array[Array[Byte]], ids: Array[Int])

/** The built HD-Index: τ RDB-trees + reference objects + the pre-computed
  * reference-to-reference distance matrix (needed by the Ptolemaic filter).
  */
final class HdIndexModel(
    val cfg: HdIndexConfig,
    val refIds: Array[Int],
    val refs: Array[Array[Float]],
    val refMatrix: Array[Array[Double]],
    val trees: Array[LocalTree],
    val refdistsById: Array[Array[Float]]) extends Serializable {

  /** Sec. 3.6: deletions are handled by marking — marked objects are never
    * returned as answers but stay in the tree pages.
    */
  val deleted: scala.collection.mutable.Set[Long] = scala.collection.mutable.Set.empty
  /** The number of objects n: one refdist row each, ids 0 until n. */
  def n: Int = refdistsById.length

  /** Leaf order Ω of tree t (trees can differ when the last dimension slice
    * is narrower).
    */
  def leafOrder(t: Int): Int = RdbTree.leafOrder(trees(t).width, cfg.omega, cfg.m, cfg.pageSize)

  def treeHeight(t: Int): Int = RdbTree.height(n, trees(t).width, cfg.omega, cfg.m, cfg.pageSize)

  /** Index size estimate in bytes using the paper's page model: leaf pages
    * of each tree (entries of η·ω/8 + 4m + 8 bytes packed Ω per B-byte page)
    * plus internal pages.
    */
  def indexBytes: Long =
    trees.indices.map { t =>
      val om     = leafOrder(t)
      val leaves = (n.toLong + om - 1) / om
      val theta  = RdbTree.internalFanout(trees(t).width, cfg.omega, cfg.pageSize)
      var pages  = leaves
      var level  = leaves
      while (level > 1) { level = (level + theta - 1) / theta; pages += level }
      pages * cfg.pageSize.toLong
    }.sum
}

/** HD-Index construction (Algo. 1): choose references, compute reference
  * distances, build the τ RDB-trees.
  */
object HdIndex {

  def configFor(spec: VectorData.Spec): HdIndexConfig =
    HdIndexConfig(spec.dim, spec.tau, spec.omega, spec.lo, spec.hi)

  /** Build from a distributed dataset. `localData` is the driver-side copy
    * used for reference selection (the paper scans the dataset for SSS) and
    * must equal the distributed content; a wrong-dimension or non-finite
    * object in it is rejected before any work. One map-only
    * [[RdbTree.build]] job computes every object's τ keys and m refdists;
    * the driver collects it, checks that its ids are exactly 0 until n,
    * and sorts each tree by (key, id). With m = 0 the model has no
    * references, a 0×0 `refMatrix` and empty refdists: Multicurves' index.
    */
  def build(spark: SparkSession, data: Dataset[VecRow], localData: Array[Array[Float]],
            cfg: HdIndexConfig): HdIndexModel = {
    for (id <- localData.indices) HdQuery.checkQuery(localData(id), cfg.dim, s"object $id")

    val refIds = ReferenceSelection.sss(localData, cfg.m, cfg.f, cfg.seed)
    val refs = refIds.map(localData(_))
    val refMatrix = Array.tabulate(refs.length, refs.length) {
      (i, j) => Distance.l2(refs(i), refs(j))
    }

    val n = localData.length
    val byId = repro.baselines.Common.byId(n,
      RdbTree.build(spark, data, refs, cfg.dim, cfg.tau, cfg.omega, cfg.lo, cfg.hi).collect().iterator.map(e => e.id -> e))

    // Each tree is its own (key, id) sort of the ids: a total order, so the
    // trees do not depend on Spark's partitioning. Keys and refdists are
    // copied into fresh arrays, so the model keeps no per-object buffer alive.
    val offs  = RdbTree.keyOffsets(cfg.dim, cfg.tau, cfg.omega)
    val trees = RdbTree.partitions(cfg.dim, cfg.tau).zipWithIndex.map { case ((from, width), t) =>
      val (start, end) = (offs(t), offs(t + 1))
      val sorted = Array.tabulate[Integer](n)(Integer.valueOf)
      java.util.Arrays.sort(sorted, (a: Integer, b: Integer) => {
        // unsigned lexicographic, as Hilbert.compareKeys
        val c = java.util.Arrays.compareUnsigned(byId(a).keys, start, end, byId(b).keys, start, end)
        if (c != 0) c else a.compareTo(b)
      })
      LocalTree(t, from, width, sorted.map(id => java.util.Arrays.copyOfRange(byId(id).keys, start, end)), sorted.map(_.intValue))
    }
    // refdists are allocated in one tree's key order: objects near in space
    // get refdists near in memory, as a window's gather reads them
    val refdistsById = new Array[Array[Float]](n)
    trees.last.ids.foreach(id => refdistsById(id) = byId(id).refdists.clone())
    new HdIndexModel(cfg, refIds, refs, refMatrix, trees, refdistsById)
  }

  /** Sec. 3.6 insertion: B+-trees are update-friendly, so a new object only
    * needs its τ Hilbert keys and its m reference distances — the reference
    * set R is *not* recomputed (random references perform close to SSS,
    * Fig. 4, and updates are few relative to n). Each tree gets the new
    * entry at its (key, id) position: as id is larger than every id in a
    * tree, just after the last key <= its key.
    *
    * @param id must be the next dense id (== current n)
    * @return a new model sharing cfg/references with the entry inserted
    */
  def insert(model: HdIndexModel, id: Int, vec: Array[Float]): HdIndexModel = {
    require(id == model.n, s"ids must stay dense: expected ${model.n}, got $id")
    val cfg = model.cfg
    HdQuery.checkQuery(vec, cfg.dim, "inserted vector")
    val rd  = model.refs.map(r => Distance.l2(vec, r).toFloat)
    val trees = model.trees.map { tr =>
      val key = Hilbert(tr.width, cfg.omega).encodeVector(vec, tr.fromDim, cfg.lo, cfg.hi)
      var lo  = HdQuery.lowerBound(tr.keys, key)
      while (lo < tr.keys.length && Hilbert.compareKeys(tr.keys(lo), key) == 0) lo += 1
      val nk = new Array[Array[Byte]](tr.keys.length + 1)
      val ni = new Array[Int](tr.ids.length + 1)
      System.arraycopy(tr.keys, 0, nk, 0, lo); nk(lo) = key
      System.arraycopy(tr.keys, lo, nk, lo + 1, tr.keys.length - lo)
      System.arraycopy(tr.ids, 0, ni, 0, lo); ni(lo) = id
      System.arraycopy(tr.ids, lo, ni, lo + 1, tr.ids.length - lo)
      tr.copy(keys = nk, ids = ni)
    }
    val nrd = java.util.Arrays.copyOf(model.refdistsById, model.refdistsById.length + 1)
    nrd(id) = rd
    val m2 = new HdIndexModel(cfg, model.refIds, model.refs, model.refMatrix, trees, nrd)
    m2.deleted ++= model.deleted
    m2
  }

  /** Sec. 3.6 deletion: mark only. */
  def markDeleted(model: HdIndexModel, id: Long): Unit = {
    require(id >= 0 && id < model.n, s"id $id is not in the index [0, ${model.n})")
    model.deleted += id
  }
}
