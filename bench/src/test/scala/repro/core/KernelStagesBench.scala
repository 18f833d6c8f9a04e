package repro.core

import repro.{SparkSpec, VectorData}
import repro.harness.Harness

/** Where a query's time goes, stage by stage of Algo 2, on perfbench's two
  * query settings: sun (triangular) and sift10k (Ptolemaic), each at
  * seed 1 with 200 held-out queries, k = 100, α = n/10 and
  * `QueryParams.recommended`. Each query runs the steps of
  * [[HdQuery.searchLocal]] on its own [[HdQuery.Kernel]], timed around
  * each call: start (the m reference distances), the τ Hilbert encodes,
  * the τ α-windows, the τ filters (both bounds and the β/γ cuts) and the
  * answer (the κ fetches and the exact rerank). It also prints the
  * coordinates the rerank summed, a kernel counter, so a change to the
  * rerank's order shows as work saved and not only as time, and the µs of
  * the τ γ cuts (part of the filters), replayed alone on the windows'
  * packed bounds.
  */
class KernelStagesBench extends SparkSpec {

  private val stages = Seq("start", "encodes", "windows", "filters", "answer")

  /** µs per query of each stage in one pass over the queries, and the
    * answers and coordinates summed, per query.
    */
  private def pass(model: HdIndexModel, queries: Array[Array[Float]], p: QueryParams,
                   getVec: Long => Array[Float], kernel: HdQuery.Kernel): (Array[Double], Array[Array[(Long, Double)]],
                                                                            Array[Long]) = {
    val cfg = model.cfg
    val ns = new Array[Long](stages.length)
    val coords = new Array[Long](queries.length)
    val answers = queries.indices.map { qi =>
      val q = queries(qi)
      val t0 = System.nanoTime()
      kernel.start(model, q, p)
      val t1 = System.nanoTime()
      ns(0) += t1 - t0
      var t = 0
      while (t < model.trees.length) {
        val tree = model.trees(t)
        val a = System.nanoTime()
        val qkey = tree.curve.encodeVector(q, tree.fromDim, cfg.lo, cfg.hi)
        val b = System.nanoTime()
        val (s, e) = HdQuery.selectWindow(tree.keys, qkey, p.alpha)
        val c = System.nanoTime()
        kernel.filter(tree.ids, s, e)
        val d = System.nanoTime()
        ns(1) += b - a; ns(2) += c - b; ns(3) += d - c
        t += 1
      }
      val a = System.nanoTime()
      val (ans, _) = kernel.answer(q, getVec, p.k, model.deleted)
      ns(4) += System.nanoTime() - a
      coords(qi) = kernel.rerankCoords
      kernel.finish()
      ans
    }.toArray
    (ns.map(_ / 1e3 / queries.length), answers, coords)
  }

  /** Per query and tree, what the kernel's cut to γ selects from: the
    * window's (bound bits, position) longs, triangular bounds where β = γ,
    * else Ptolemaic ones (β does not cut here).
    */
  private def cutInputs(model: HdIndexModel, queries: Array[Array[Float]], p: QueryParams): Array[Array[Long]] = {
    val cfg = model.cfg
    require(!p.usePtolemaic || p.beta >= math.min(p.alpha, model.n), "a β cut is not replayed")
    for (q <- queries; tree <- model.trees) yield {
      val dq = model.refs.map(r => Distance.l2(q, r))
      val qkey = tree.curve.encodeVector(q, tree.fromDim, cfg.lo, cfg.hi)
      val (s, e) = HdQuery.selectWindow(tree.keys, qkey, p.alpha)
      Array.tabulate(e - s) { i =>
        val rd = model.refdistsById(tree.ids(s + i))
        val bound = if (p.usePtolemaic) HdQuery.ptolemaicBound(dq, rd, model.refMatrix) else HdQuery.triBound(dq, rd)
        (java.lang.Float.floatToIntBits(bound.toFloat).toLong << 32) | i
      }
    }
  }

  /** µs per query of the γ cuts alone, replayed on copies of `inputs`. */
  private def cutsPass(inputs: Array[Array[Long]], p: QueryParams, queries: Int): Double = {
    val scratch = new Array[Long](inputs.map(_.length).max)
    var ns = 0L
    for (in <- inputs) {
      System.arraycopy(in, 0, scratch, 0, in.length)
      val t0 = System.nanoTime()
      HdQuery.selectSmallest(scratch, 0, in.length, math.min(in.length, p.gamma))
      ns += System.nanoTime() - t0
    }
    ns / 1e3 / queries
  }

  private def run(base: VectorData.Spec, ptolemaic: Boolean): Unit = {
    val spec = base.copy(seed = 1, nQueries = 200)
    val local = spec.localData
    val model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec))
    val p = QueryParams.recommended(100, math.max(256, math.min(4096, spec.n / 10)), ptolemaic)
    val queries = spec.queries.map(_.vec)
    val getVec: Long => Array[Float] = id => local(id.toInt)
    val kernel = new HdQuery.Kernel
    // the staged steps are searchLocal's: the same answers
    val (_, answers, coords) = pass(model, queries, p, getVec, kernel)
    queries.indices.foreach { qi =>
      assert(answers(qi).toSeq == HdQuery.searchLocal(model, queries(qi), p, getVec)._1.toSeq, s"query $qi")
    }
    // warm-up for the JIT, then the median of each stage over timed passes
    for (_ <- 1 to 20) pass(model, queries, p, getVec, kernel)
    val timed = Array.fill(Harness.TimedPasses)(pass(model, queries, p, getVec, kernel)._1)
    val median = stages.indices.map(i => timed.map(_(i)).sorted.apply(Harness.TimedPasses / 2))
    val inputs = cutInputs(model, queries, p)
    for (_ <- 1 to 20) cutsPass(inputs, p, queries.length)
    val cuts = Array.fill(Harness.TimedPasses)(cutsPass(inputs, p, queries.length)).sorted
                    .apply(Harness.TimedPasses / 2)
    println(f"== kernel stages on ${spec.name} (n=${spec.n}, ${if (ptolemaic) "Ptolemaic" else "triangular"}, " +
            f"k=${p.k} alpha=${p.alpha} beta=${p.beta} gamma=${p.gamma}; us per query, median of " +
            f"${Harness.TimedPasses} passes over ${queries.length} queries) ==")
    println(stages.map(s => f"$s%9s").mkString + f"${"total"}%9s${"coords"}%10s${"cuts"}%9s")
    println(median.map(us => f"$us%9.1f").mkString + f"${median.sum}%9.1f" +
            f"${coords.sum.toDouble / queries.length}%10.0f$cuts%9.1f")
    assert(coords.forall(_ > 0))
  }

  test("sun, triangular: stage split") { run(VectorData.sun, ptolemaic = false) }
  test("sift10k, Ptolemaic: stage split") { run(VectorData.sift10k, ptolemaic = true) }
}
