package repro.harness

import org.apache.spark.sql.SparkSession
import repro.{VecRow, VectorData}
import repro.baselines._
import repro.core._

/** Per-method result row for the comparison tables. `queryMillis` is the
  * median over the timed passes of the mean per-query time, and
  * `queryIqrMillis` the distance between their quartiles.
  */
final case class MethodResult(
    method: String, dataset: String,
    buildMillis: Long, indexMB: Double,
    queryMillis: Double, queryIqrMillis: Double, map: Double, ratio: Double)

/** Shared measurement harness behind the Table 5 bench, the parameter
  * benches and the spark-submit jobs: builds every method on a dataset,
  * times the full query set, and computes MAP@k / approximation ratio
  * against the distributed linear-scan ground truth.
  */
object Harness {

  /** The comparison roster of Sec. 2.2.6 (HD-Index first). */
  val methods: Seq[AnnMethod] = Seq(
    new HdIndexMethod(), C2Lsh, Srs, Multicurves, Qalsh, Pq, Hnsw, IDistance)

  final case class Prepared(
      spec: VectorData.Spec,
      local: Array[Array[Float]],
      queries: Array[VecRow],
      truth: Array[Array[(Long, Double)]])

  def prepare(spark: SparkSession, spec: VectorData.Spec, k: Int): Prepared = {
    val local = spec.localData
    val queries = spec.queries
    val truth = LinearScan.groundTruth(spark, spec.data(spark), queries, k)
    Prepared(spec, local, queries, truth)
  }

  /** Timed passes of [[timePasses]]. */
  final val TimedPasses = 5

  /** Runs `pass` [[TimedPasses]] times and returns the median and the
    * interquartile range of its wall-clock, in ms. The caller runs it once
    * untimed first, so that JIT compilation (which the paper's C++
    * baselines do not pay) is excluded.
    */
  def timePasses(pass: => Unit): (Double, Double) = {
    val ms = Array.fill(TimedPasses) {
      val t0 = System.nanoTime()
      pass
      (System.nanoTime() - t0) / 1e6
    }.sorted
    (ms(TimedPasses / 2), ms(3 * TimedPasses / 4) - ms(TimedPasses / 4))
  }

  /** Build one method, timing the build call, and measure it over the whole
    * query set: one untimed pass, whose answers are scored, then
    * [[timePasses]]; the result holds the median and interquartile range
    * of the mean per-query time.
    */
  def measure(spark: SparkSession, prep: Prepared, method: AnnMethod, k: Int): MethodResult = {
    val b0 = System.nanoTime()
    val idx = method.build(spark, prep.spec, prep.spec.data(spark), prep.local)
    val buildMillis = (System.nanoTime() - b0) / 1000000L
    val answers = prep.queries.map(q => idx.search(q.vec, k))
    val (passMs, iqrMs) = timePasses(prep.queries.foreach(q => idx.search(q.vec, k)))

    val map = Metrics.mapAtK(
      prep.queries.indices.map(qi =>
        (prep.truth(qi).map(_._1).toSeq, answers(qi).map(_._1).toSeq)), k)
    val ratio = prep.queries.indices.map { qi =>
      val t = prep.truth(qi)
      val a = answers(qi)
      val kk = math.min(t.length, a.length)
      if (kk == 0) 1.0
      else Metrics.approximationRatio(a.take(kk).map(_._2).toSeq, t.take(kk).map(_._2).toSeq)
    }.sum / prep.queries.length

    MethodResult(idx.name, prep.spec.name, buildMillis, idx.indexBytes / 1e6,
                 passMs / prep.queries.length, iqrMs / prep.queries.length, map, ratio)
  }

  /** Full comparison on one dataset. */
  def compareAll(spark: SparkSession, spec: VectorData.Spec, k: Int): Seq[MethodResult] = {
    val prep = prepare(spark, spec, k)
    methods.map { m =>
      val r = measure(spark, prep, m, k)
      Console.err.println(f"[harness] ${spec.name}%-8s ${r.method}%-12s " +
        f"build=${r.buildMillis}%6d ms  idx=${r.indexMB}%9.2f MB  " +
        f"q=${r.queryMillis}%8.3f ms (IQR ${r.queryIqrMillis}%.3f)  MAP@$k=${r.map}%.3f  ratio=${r.ratio}%.3f")
      r
    }
  }

  /** Render results as a fixed-width table (one row per method). */
  def formatTable(rows: Seq[MethodResult], k: Int): String = {
    val header = f"${"dataset"}%-8s ${"method"}%-12s ${"build(ms)"}%10s ${"index(MB)"}%10s " +
      f"${"query(ms)"}%10s ${"IQR(ms)"}%8s ${s"MAP@$k"}%8s ${"ratio"}%7s"
    (header +: rows.map(r =>
      f"${r.dataset}%-8s ${r.method}%-12s ${r.buildMillis}%10d ${r.indexMB}%10.2f " +
      f"${r.queryMillis}%10.3f ${r.queryIqrMillis}%8.3f ${r.map}%8.3f ${r.ratio}%7.3f")).mkString("\n")
  }

  /** The Table 5 gain view: HD-Index query-time and MAP gains over others. */
  def formatGains(rows: Seq[MethodResult], k: Int): String = {
    val hd = rows.find(_.method == "hdindex").getOrElse(sys.error("no hdindex row"))
    val others = rows.filterNot(r => r.method == "hdindex" || r.method == "idistance")
    val sb = new StringBuilder
    sb.append(f"${hd.dataset}%-8s HD-Index: q=${hd.queryMillis}%.2f ms  MAP@$k=${hd.map}%.3f\n")
    others.foreach { o =>
      sb.append(f"  vs ${o.method}%-12s  time-gain=${o.queryMillis / hd.queryMillis}%8.2fx  " +
        f"MAP-gain=${hd.map / math.max(o.map, 1e-4)}%8.2fx\n")
    }
    sb.toString
  }
}
