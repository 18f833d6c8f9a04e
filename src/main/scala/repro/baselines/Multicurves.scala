package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.core.{Distance, HdIndex, HdIndexConfig, HdQuery, Hilbert, LocalTree}

/** Multicurves (Valle et al. [67]) — the space-filling-curve baseline.
  *
  * Like HD-Index it builds τ Hilbert curves over disjoint dimension
  * subsets, but its B+-tree leaves store the *full descriptor* next to each
  * key (no reference distances, no filters): querying takes the α
  * key-nearest entries from every curve, computes exact distances on the
  * whole union, and returns top-k. Consequence — good quality, but the
  * index is ~ν·4-bytes-per-entry·τ large (the 1.2 TB SIFT100M index of
  * Sec. 5.4.3) and κ = τ·α exact distance computations per query.
  */
object Multicurves extends AnnMethod {
  override def name = "multicurves"

  final class Index(
      data: Array[Array[Float]],
      cfg: HdIndexConfig, alpha: Int,
      trees: Array[LocalTree],
      val buildMillis: Long) extends AnnIndex {

    override def name = "multicurves"

    override def search(q: Array[Float], k: Int): Array[(Long, Double)] = {
      val cands = scala.collection.mutable.Set.empty[Long]
      trees.foreach { tree =>
        val qkey = Hilbert(tree.width, cfg.omega).encodeVector(q, tree.fromDim, cfg.lo, cfg.hi)
        val (s, e) = HdQuery.selectWindow(tree.keys, qkey, alpha)
        var i = s
        while (i < e) { cands += tree.ids(i); i += 1 }
      }
      Distance.topK(cands.iterator.map(id => id -> Distance.l2(data(id.toInt), q)), k)
    }

    override def indexBytes: Long = {
      // leaves store key + full vector (4ν) + pointer per entry
      val keyB = trees.headOption.map(t => (t.width * cfg.omega + 7) / 8).getOrElse(0)
      data.length.toLong * cfg.tau * (keyB + 4L * cfg.dim + 8L)
    }
  }

  /** The τ curves are HD-Index's trees (Algo. 1) built without references. */
  def buildIndex(spark: SparkSession, data: Dataset[VecRow], localData: Array[Array[Float]],
                 dim: Int, tau: Int, omega: Int, lo: Double, hi: Double,
                 alpha: Int): Index = {
    val t0 = System.nanoTime()
    val cfg = HdIndexConfig(dim, tau, omega, lo, hi)
    val (trees, _) = HdIndex.collectTrees(spark, data, Array.empty, cfg, localData.length)
    new Index(localData, cfg, alpha, trees, (System.nanoTime() - t0) / 1000000L)
  }

  override def build(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                     localData: Array[Array[Float]]): AnnIndex =
    buildIndex(spark, data, localData, spec.dim, spec.tau, spec.omega, spec.lo, spec.hi,
               alpha = math.max(100, math.min(4096, spec.n / 10)))
}
