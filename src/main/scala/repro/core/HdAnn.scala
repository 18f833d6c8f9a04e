package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.baselines.{AnnIndex, AnnMethod}

/** Adapter exposing a built HD-Index through the common [[AnnIndex]]
  * interface used by the benchmark harness, so Table 5 treats HD-Index and
  * every baseline uniformly. Multicurves extends it with an m = 0 model.
  */
class HdAnnIndex(val model: HdIndexModel, val params: QueryParams,
                 data: Array[Array[Float]]) extends AnnIndex(model.cfg.dim) {
  override def name = "hdindex"
  override protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)] =
    HdQuery.searchLocal(model, q, params.copy(k = k), id => data(id.toInt))._1
  override def indexBytes: Long = model.indexBytes
}

/** HD-Index as an [[AnnMethod]] with the paper's recommended query setting:
  * triangular-only filter, α/γ = 4, α scaled with n (DESIGN.md §6).
  */
final class HdIndexMethod(alphaOverride: Int = -1) extends AnnMethod {
  override protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                                      localData: Array[Array[Float]]): AnnIndex = {
    val model = HdIndex.build(spark, data, localData, HdIndex.configFor(spec))
    val alpha = if (alphaOverride > 0) alphaOverride
                else math.max(256, math.min(4096, spec.n / 10))
    new HdAnnIndex(model, QueryParams.recommended(100, alpha), localData)
  }
}
