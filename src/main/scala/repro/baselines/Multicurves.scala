package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.core.{HdAnnIndex, HdIndex, HdIndexModel, QueryParams}

/** Multicurves (Valle et al. [67]) — the space-filling-curve baseline.
  *
  * It is HD-Index with no references: an HD-Index model built with m = 0
  * (the same τ Hilbert curves) and queried by `HdQuery.searchLocal` with
  * γ = β = α. No cut cuts, so no bound is computed: each curve's α
  * key-nearest entries all go to the exact top-k over their union. Its
  * B+-tree leaves store the *full descriptor* next to each key, so the
  * index is ~ν·4-bytes-per-entry·τ large (the 1.2 TB SIFT100M index of
  * Sec. 5.4.3).
  */
object Multicurves extends AnnMethod {
  final class Index(curves: HdIndexModel, alpha: Int, data: Array[Array[Float]])
      extends HdAnnIndex(curves, QueryParams(100, alpha, alpha, alpha), data) {

    override def name = "multicurves"

    override def indexBytes: Long = {
      // leaves store key + full vector (4ν) + pointer per entry; a narrower
      // last slice has a shorter key
      model.trees.map(t => model.n.toLong * (t.curve.keyBytes + 4L * model.cfg.dim + 8L)).sum
    }
  }

  override protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                                      localData: Array[Array[Float]]): AnnIndex =
    new Index(HdIndex.build(spark, data, localData, HdIndex.configFor(spec).copy(m = 0)),
              alpha = math.max(100, math.min(4096, spec.n / 10)), localData)
}
