package repro.bench

import repro.{SparkSpec, VectorData}
import repro.baselines.LinearScan
import repro.core._
import repro.harness.Harness

/** Sec. 5.4.3 / Sec. 3.5: scalability of HD-Index — index size linear in n,
  * query time growing sub-linearly (O(τ(log n + ν)) per query), and bytes
  * allocated per query growing only with the κ candidates fetched.
  * Stands in for the SIFT10M/100M/1B rows that need the paper's hardware.
  */
class ScalabilityBench extends SparkSpec {

  private val sizes = Seq(2500, 5000, 10000, 20000, 40000, 80000, 160000)

  test("index size scales linearly, query time sub-linearly, allocation with kappa") {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    println(f"== HD-Index scalability sweep (nu=128, SIFT-like; max heap ${Runtime.getRuntime.maxMemory / 1e6}%.0f MB) ==")
    println(f"${"n"}%7s ${"build(ms)"}%10s ${"index(MB)"}%10s ${"q(ms)"}%8s ${"IQR(ms)"}%8s ${"B/q"}%8s " +
            f"${"MAP@10"}%7s ${"pages/q"}%8s ${"kappa"}%7s")
    val rows = sizes.map { n =>
      val spec = VectorData.sift1m.copy(name = s"scale$n", n = n, nQueries = 100)
      val local = spec.localData
      val b0 = System.nanoTime()
      val model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec))
      val buildMs = (System.nanoTime() - b0) / 1000000L
      val queries = spec.queries
      val truth = LinearScan.groundTruth(spark, spec.data(spark), queries, 10)
      val p = QueryParams.recommended(10, alpha = 1024)
      val getVec: Long => Array[Float] = id => local(id.toInt)
      def pass(): Array[(Array[(Long, Double)], QueryStats)] =
        queries.map(q => HdQuery.searchLocal(model, q.vec, p, getVec))
      // 10 untimed passes for the JIT; then the median of 5 timed passes
      val results = pass()
      for (_ <- 2 to 10) pass()
      val a0 = mx.getCurrentThreadAllocatedBytes
      val (passMs, iqrMs) = Harness.timePasses(pass())
      val bytes = (mx.getCurrentThreadAllocatedBytes - a0) / (Harness.TimedPasses.toLong * queries.length)
      val (ms, iqr) = (passMs / queries.length, iqrMs / queries.length)
      val pages = results.map(_._2.leafPages).sum.toDouble / queries.length
      val kappa = results.map(_._2.kappa).sum.toDouble / queries.length
      val map10 = Metrics.mapAtK(queries.indices.map(qi =>
        (truth(qi).map(_._1).toSeq, results(qi)._1.map(_._1).toSeq)), 10)
      println(f"$n%7d $buildMs%10d ${model.indexBytes / 1e6}%10.2f $ms%8.3f $iqr%8.3f " +
              f"$bytes%8d $map10%7.3f $pages%8.1f $kappa%7.1f")
      (n, model.indexBytes.toDouble, ms, map10, bytes.toDouble, kappa)
    }

    // linear index size: bytes/n roughly constant (within 2x across 64x scale)
    val perObj = rows.map(r => r._2 / r._1)
    assert(perObj.max / perObj.min < 2.0, s"bytes/object drifts: $perObj")
    // sub-linear query time: 64x data must NOT cost 8x time
    assert(rows.last._3 < rows.head._3 * 8,
           s"query time grew ${rows.last._3 / rows.head._3}x over 64x data")
    // a query allocates a boxed id per κ candidate it fetches and nothing
    // that grows with n, so its bytes grow no faster than κ (per-query memos
    // of 4 B per object grew them 5.4x here while κ grew 2.7x)
    val bytesGrowth = rows.last._5 / rows.head._5
    val kappaGrowth = rows.last._6 / rows.head._6
    assert(bytesGrowth <= kappaGrowth,
           f"bytes per query grew ${bytesGrowth}%.2fx, kappa ${kappaGrowth}%.2fx over 64x data")
    // quality holds up with scale (alpha fixed at 1024)
    assert(rows.map(_._4).min > 0.4)
  }

  test("query-time robustness with k (Sec. 5.2.7: flat in k)") {
    val spec = VectorData.sift10k
    val local = spec.localData
    val model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec))
    // all 100 held-out queries per pass: a pass of 30 (≈ 25 ms) moved its
    // median by up to 30 % between runs, more than k did
    val queries = spec.queries
    val ks = Seq(1, 10, 50, 100)
    def pass(k: Int): Unit = {
      val p = QueryParams.recommended(k, alpha = 1024)
      queries.foreach(q => HdQuery.searchLocal(model, q.vec, p, id => local(id.toInt)))
    }
    // warm every k before timing any: otherwise the first k is timed on
    // code the JIT has not compiled yet
    ks.foreach(k => for (_ <- 1 to Harness.TimedPasses) pass(k))
    val times = ks.map(k => k -> Harness.timePasses(pass(k))._1 / queries.length)
    println("== query time vs k (alpha=1024 fixed) ==")
    times.foreach { case (k, ms) => println(f"  k=$k%4d  $ms%8.3f ms") }
    // k << alpha, so the alpha-driven work dominates: 100x k within 3x time
    assert(times.last._2 < times.head._2 * 3,
           s"k=100 cost ${times.last._2 / times.head._2}x of k=1")
  }
}
