package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec, VectorData}
import repro.baselines.LinearScan

/** Oracle properties of Algo 2 on small generated datasets (n ≤ 500):
  * every generated spec is built through [[HdIndex.build]] and queried with
  * its own held-out queries.
  */
class HdQueryPropertySpec extends SparkSpec {

  /** Specs of 20–500 objects in 2–48 dimensions, 1–6 trees and 0–10
    * references. Integer-valued specs on [0, 7] make many distances tie.
    */
  private val cases: Gen[(VectorData.Spec, Int)] = for {
    dim      <- Gen.choose(2, 48)
    tau      <- Gen.choose(1, math.min(dim, 6))
    n        <- Gen.choose(20, 500)
    omega    <- Gen.oneOf(4, 8, 16)
    ints     <- Gen.oneOf(false, true)
    clusters <- Gen.choose(1, 12)
    m        <- Gen.choose(0, 10)
    seed     <- Gen.choose(0L, Long.MaxValue)
  } yield (VectorData.tiny.copy(name = s"prop$seed", dim = dim, n = n, lo = 0, hi = if (ints) 7 else 1,
                                integerValued = ints, nClusters = clusters, stdFrac = 0.1, nQueries = 5,
                                omega = omega, tau = tau, seed = seed), m)

  /** Runs `check` on the model of each generated case, with its data. */
  private def forAllModels(samples: Int)(check: (HdIndexModel, Array[Array[Float]], VectorData.Spec,
                                                 scala.util.Random) => Unit): Unit =
    PropHelpers.forAllSamples(cases, n = samples) { case (spec, m) =>
      val local = spec.localData
      val model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec).copy(m = m))
      withClue(s"$spec m=$m: ")(check(model, local, spec, new scala.util.Random(spec.seed)))
    }

  test("property: alpha = beta = gamma = n returns exactly LinearScan's answer (triangular and Ptolemaic)") {
    forAllModels(12) { (model, local, spec, rng) =>
      val n = spec.n
      val exact = new LinearScan.Index(local)
      for (q <- spec.queries; pto <- Seq(false, true)) {
        val k = 1 + rng.nextInt(n + 5)
        val got = HdQuery.searchLocal(model, q.vec, QueryParams(k, n, n, n, pto), id => local(id.toInt))._1
        assert(got.toSeq == exact.search(q.vec, k).toSeq, s"k=$k ptolemaic=$pto")
      }
    }
  }

  test("property: with alpha fixed, a larger gamma never increases the i-th returned distance") {
    forAllModels(12) { (model, local, spec, rng) =>
      val n = spec.n
      for (q <- spec.queries; pto <- Seq(false, true)) {
        val alpha = 1 + rng.nextInt(n)
        val beta  = 1 + rng.nextInt(alpha)
        val g1    = 1 + rng.nextInt(beta)
        val g2    = g1 + rng.nextInt(beta - g1 + 1)
        val k     = 1 + rng.nextInt(n)
        def search(gamma: Int) =
          HdQuery.searchLocal(model, q.vec, QueryParams(k, alpha, beta, gamma, pto), id => local(id.toInt))._1
        val (small, large) = (search(g1), search(g2))
        val clue = s"k=$k alpha=$alpha beta=$beta gamma=$g1 then $g2 ptolemaic=$pto"
        assert(large.length >= small.length, clue)
        for (i <- small.indices) assert(large(i)._2 <= small(i)._2, s"$clue, rank $i")
      }
    }
  }

  test("property: alpha-windows are nested as alpha grows") {
    forAllModels(12) { (model, _, spec, rng) =>
      val n = spec.n
      val cfg = model.cfg
      for (q <- spec.queries; tree <- model.trees) {
        val qkey = Hilbert(tree.width, cfg.omega).encodeVector(q.vec, tree.fromDim, cfg.lo, cfg.hi)
        val alphas = Seq.fill(4)(rng.nextInt(n + 3)).sorted
        val windows = alphas.map(a => HdQuery.selectWindow(tree.keys, qkey, a))
        for (((s1, e1), (s2, e2)) <- windows.zip(windows.tail))
          assert(s2 <= s1 && e1 <= e2, s"alphas $alphas give windows $windows")
      }
    }
  }
}
