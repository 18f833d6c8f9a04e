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

  /** Index size in bytes using the paper's page model (Sec. 3.5.2): each
    * tree's leaf and internal pages.
    */
  def indexBytes: Long = trees.iterator.map(_.bytes(cfg)).sum
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
    * the driver collects it, checks that its ids are exactly 0 until n and
    * that each object's vector hashes as in `localData`, and sorts each tree
    * by (key, id) ([[RdbTree.trees]]). With m = 0 the model has no
    * references, a 0×0 `refMatrix` and empty refdists: Multicurves' index.
    */
  def build(spark: SparkSession, data: Dataset[VecRow], localData: Array[Array[Float]],
            cfg: HdIndexConfig): HdIndexModel = {
    val n = localData.length
    val checksums = Array.tabulate(n) { id =>
      HdQuery.checkQuery(localData(id), cfg.dim, s"object $id")
      java.util.Arrays.hashCode(localData(id))
    }

    val refIds = ReferenceSelection.sss(localData, cfg.m, cfg.f, cfg.seed)
    val refs = refIds.map(localData(_))
    val refMatrix = Array.tabulate(refs.length, refs.length) {
      (i, j) => Distance.l2(refs(i), refs(j))
    }

    val byId = repro.baselines.Common.byId(n,
      RdbTree.build(spark, data, refs, cfg.dim, cfg.tau, cfg.omega, cfg.lo, cfg.hi).collect().iterator.map(e => e.id -> e))
    for (id <- 0 until n)
      require(byId(id).checksum == checksums(id), s"object $id of data differs from localData")

    val trees = RdbTree.trees(byId, cfg)
    // refdists are allocated in one tree's key order: objects near in space
    // get refdists near in memory, as a window's gather reads them
    val refdistsById = new Array[Array[Float]](n)
    trees.last.ids.foreach(id => refdistsById(id) = byId(id).refdists.clone())
    new HdIndexModel(cfg, refIds, refs, refMatrix, trees, refdistsById)
  }

  /** Sec. 3.6 insertion: B+-trees are update-friendly, so a new object only
    * needs its τ Hilbert keys and its m reference distances — the reference
    * set R is *not* recomputed (random references perform close to SSS,
    * Fig. 4, and updates are few relative to n). Each tree inserts the new
    * entry at its (key, id) position ([[LocalTree.inserted]]).
    *
    * @param id must be the next dense id (== current n)
    * @return a new model sharing cfg/references with the entry inserted
    */
  def insert(model: HdIndexModel, id: Int, vec: Array[Float]): HdIndexModel = {
    require(id == model.n, s"ids must stay dense: expected ${model.n}, got $id")
    val cfg = model.cfg
    HdQuery.checkQuery(vec, cfg.dim, "inserted vector")
    val rd  = model.refs.map(r => Distance.l2(vec, r).toFloat)
    val trees = model.trees.map(tr => tr.inserted(tr.curve.encodeVector(vec, tr.fromDim, cfg.lo, cfg.hi), id))
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
