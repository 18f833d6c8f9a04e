package repro.bench

import repro.{SparkSpec, VectorData}
import repro.baselines.LinearScan
import repro.core._

/** Sec. 5.2.5 (Figs. 6/11/12): triangular-only vs triangular+Ptolemaic
  * filtering. Paper findings to reproduce:
  *  - combined filtering MAP@10 ≥ triangular-only MAP@10 at equal reduction,
  *  - combined filtering costs ~1.5–2× the query time,
  *  - both saturate at modest α/γ reduction.
  */
class PtolemaicBench extends SparkSpec {

  private def run(spec: VectorData.Spec, alpha: Int): Unit = {
    val local = spec.localData
    val model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec))
    val queries = spec.queries
    val truth = LinearScan.groundTruth(spark, spec.data(spark), queries, 10)
    def evalParams(p: QueryParams): (Double, Double) = {
      val t0 = System.nanoTime()
      val per = queries.zipWithIndex.map { case (q, qi) =>
        val (ans, _) = HdQuery.searchLocal(model, q.vec, p, id => local(id.toInt))
        (truth(qi).map(_._1).toSeq, ans.map(_._1).toSeq)
      }
      val ms = (System.nanoTime() - t0) / 1e6 / queries.length
      (Metrics.mapAtK(per.toSeq, 10), ms)
    }
    println(s"== Ptolemaic vs triangular on ${spec.name} (alpha=$alpha) ==")
    println(f"${"filter"}%-28s ${"MAP@10"}%8s ${"ms/query"}%9s")
    val configs = Seq(
      ("tri alpha/gamma=4",        QueryParams(10, alpha, alpha / 4, alpha / 4)),
      ("tri+pto a/b=1, b/g=4",     QueryParams(10, alpha, alpha, alpha / 4)),
      ("tri alpha/gamma=16",       QueryParams(10, alpha, alpha / 16, alpha / 16)),
      ("tri+pto a/b=1, b/g=16",    QueryParams(10, alpha, alpha, alpha / 16)))
    // warm every configuration before timing any: otherwise the first one
    // is timed on code the JIT has not compiled yet
    for ((_, p) <- configs; q <- queries) HdQuery.searchLocal(model, q.vec, p, id => local(id.toInt))
    val out = configs.map { case (name, p) =>
      val (m, ms) = evalParams(p)
      println(f"$name%-28s $m%8.3f $ms%9.3f")
      (name, m, ms)
    }
    // combined filter never loses quality at equal reduction…
    assert(out(1)._2 >= out(0)._2 - 0.02, s"${out(1)._2} < ${out(0)._2}")
    assert(out(3)._2 >= out(2)._2 - 0.02)
    // …and the gain is larger at aggressive reduction (alpha/gamma=16)
    // while costing clearly more CPU time.
    assert(out(1)._3 > out(0)._3, "ptolemaic must be slower (O(beta·m^2) bounds)")
  }

  test("sift10k: Ptolemaic trade-off") { run(VectorData.sift10k, alpha = 1024) }
  test("audio: Ptolemaic trade-off")   { run(VectorData.audio,   alpha = 1024) }
}
