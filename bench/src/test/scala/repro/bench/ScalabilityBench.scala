package repro.bench

import repro.{SparkSpec, VectorData}
import repro.baselines.LinearScan
import repro.core._

/** Sec. 5.4.3 / Sec. 3.5: scalability of HD-Index — index size linear in n,
  * query time growing sub-linearly (O(τ(log n + ν)) per query), flat memory.
  * Stands in for the SIFT10M/100M/1B rows that need the paper's hardware.
  */
class ScalabilityBench extends SparkSpec {

  private val sizes = Seq(2500, 5000, 10000, 20000, 40000)

  test("index size scales linearly and query time sub-linearly with n") {
    println("== HD-Index scalability sweep (nu=128, SIFT-like) ==")
    println(f"${"n"}%7s ${"build(ms)"}%10s ${"index(MB)"}%10s ${"q(ms)"}%8s ${"MAP@10"}%7s ${"pages/q"}%8s")
    val rows = sizes.map { n =>
      val spec = VectorData.sift1m.copy(name = s"scale$n", n = n, nQueries = 30)
      val local = spec.localData
      val b0 = System.nanoTime()
      val model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec))
      val buildMs = (System.nanoTime() - b0) / 1000000L
      val queries = spec.queries
      val truth = LinearScan.groundTruth(spark, spec.data(spark), queries, 10)
      val p = QueryParams.recommended(10, alpha = 1024)
      queries.take(3).foreach(q => HdQuery.searchLocal(model, q.vec, p, id => local(id.toInt)))
      val t0 = System.nanoTime()
      var pages = 0L
      val per = queries.zipWithIndex.map { case (q, qi) =>
        val (ans, st) = HdQuery.searchLocal(model, q.vec, p, id => local(id.toInt))
        pages += st.leafPages
        (truth(qi).map(_._1).toSeq, ans.map(_._1).toSeq)
      }
      val ms = (System.nanoTime() - t0) / 1e6 / queries.length
      val map10 = Metrics.mapAtK(per.toSeq, 10)
      println(f"$n%7d $buildMs%10d ${model.indexBytes / 1e6}%10.2f $ms%8.3f $map10%7.3f ${pages / queries.length}%8d")
      (n, model.indexBytes.toDouble, ms, map10)
    }

    // linear index size: bytes/n roughly constant (within 2x across 16x scale)
    val perObj = rows.map(r => r._2 / r._1)
    assert(perObj.max / perObj.min < 2.0, s"bytes/object drifts: $perObj")
    // sub-linear query time: 16x data must NOT cost 16x time (allow 8x slack)
    assert(rows.last._3 < rows.head._3 * 8,
           s"query time grew ${rows.last._3 / rows.head._3}x over 16x data")
    // quality holds up with scale (alpha fixed at 1024)
    assert(rows.map(_._4).min > 0.4)
  }

  test("query-time robustness with k (Sec. 5.2.7: flat in k)") {
    val spec = VectorData.sift10k
    val local = spec.localData
    val model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec))
    val queries = spec.queries.take(30)
    def msFor(k: Int): Double = {
      val p = QueryParams.recommended(k, alpha = 1024)
      queries.take(3).foreach(q => HdQuery.searchLocal(model, q.vec, p, id => local(id.toInt)))
      val t0 = System.nanoTime()
      queries.foreach(q => HdQuery.searchLocal(model, q.vec, p, id => local(id.toInt)))
      (System.nanoTime() - t0) / 1e6 / queries.length
    }
    val times = Seq(1, 10, 50, 100).map(k => k -> msFor(k))
    println("== query time vs k (alpha=1024 fixed) ==")
    times.foreach { case (k, ms) => println(f"  k=$k%4d  $ms%8.3f ms") }
    // k << alpha, so the alpha-driven work dominates: 100x k within 3x time
    assert(times.last._2 < times.head._2 * 3,
           s"k=100 cost ${times.last._2 / times.head._2}x of k=1")
  }
}
