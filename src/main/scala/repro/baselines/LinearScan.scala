package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.core.Distance

/** Exact kNN by full scan — the ground-truth producer for MAP/ratio and the
  * "linear scan" row of the image-search experiment (Sec. 5.5).
  *
  * [[groundTruth]] runs distributed: queries are broadcast, each partition
  * keeps a bounded top-k per query, and partial top-k lists merge on
  * the driver — the canonical Spark top-k-per-key pattern without a shuffle
  * of the full cross product.
  */
object LinearScan extends AnnMethod {
  /** Distributed exact kNN for a batch of queries. Returns per query the
    * ascending (id, distance) list.
    */
  def groundTruth(spark: SparkSession, data: Dataset[VecRow], queries: Array[VecRow],
                  k: Int): Array[Array[(Long, Double)]] = {
    val bQ = spark.sparkContext.broadcast(queries.map(_.vec))
    val partial = data.rdd.mapPartitions { it =>
      val qs   = bQ.value
      val rows = it.toArray
      qs.indices.iterator.map { qi =>
        qi -> Distance.topK(rows.iterator.map(r => r.id -> Distance.l2(r.vec, qs(qi))), k)
      }
    }
    val merged = partial
      .reduceByKey((a, b) => Distance.topK(a.iterator ++ b.iterator, k)) // partitions hold disjoint ids
      .collect()
      .toMap
    queries.indices.toArray.map(qi => merged.getOrElse(qi, Array.empty))
  }

  final class Index(data: Array[Array[Float]]) extends AnnIndex(Common.dimOf(data)) {
    override def name = "linear"
    override protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)] =
      Distance.topK(data.iterator.zipWithIndex.map { case (v, i) => i.toLong -> Distance.l2(v, q) }, k)
    override def indexBytes: Long = 0L // scans the raw data; no index
  }

  override protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                                      localData: Array[Array[Float]]): AnnIndex =
    new Index(localData)
}
