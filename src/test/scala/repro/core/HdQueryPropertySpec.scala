package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec, VectorData}
import repro.baselines.LinearScan

/** Oracle properties of Algo 2 on small generated datasets (n ≤ 500):
  * every generated spec is built through [[HdIndex.build]] and queried with
  * its own held-out queries.
  */
class HdQueryPropertySpec extends SparkSpec {

  /** Specs of 20–500 objects in 2–`maxDim` dimensions, 1–6 trees (a τ
    * whose slices are all non-empty) and 0–10 references. Integer-valued
    * specs on [0, 7] make many distances tie.
    */
  private def cases(maxDim: Int): Gen[(VectorData.Spec, Int)] = for {
    dim      <- Gen.choose(2, maxDim)
    tau      <- Gen.oneOf((1 to math.min(dim, 6)).filter(t => (t - 1) * ((dim + t - 1) / t) < dim))
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
  private def forAllModels(samples: Int, maxDim: Int = 48)(check: (HdIndexModel, Array[Array[Float]],
                                                                  VectorData.Spec, scala.util.Random) => Unit): Unit =
    PropHelpers.forAllSamples(cases(maxDim), n = samples) { case (spec, m) =>
      val local = spec.localData
      val model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec).copy(m = m))
      withClue(s"$spec m=$m: ")(check(model, local, spec, new scala.util.Random(spec.seed)))
    }

  test("property: alpha = beta = gamma = n returns exactly LinearScan's answer (triangular and Ptolemaic)") {
    forAllModels(12) { (model, local, spec, rng) =>
      val n = spec.n
      val exact = new LinearScan.Index(local)
      // no cut cuts, so neither filter runs: two k per query
      for (q <- spec.queries; _ <- 1 to 2) {
        val k = 1 + rng.nextInt(n + 5)
        val got = HdQuery.searchLocal(model, q.vec, QueryParams(k, n, n, n), id => local(id.toInt))._1
        assert(got.toSeq == exact.search(q.vec, k).toSeq, s"k=$k")
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
          HdQuery.searchLocal(model, q.vec, QueryParams(k, alpha, if (pto) beta else gamma, gamma),
                              id => local(id.toInt))._1
        val (small, large) = (search(g1), search(g2))
        val clue = s"k=$k alpha=$alpha beta=$beta gamma=$g1 then $g2 ptolemaic=$pto"
        assert(large.length >= small.length, clue)
        for (i <- small.indices) assert(large(i)._2 <= small(i)._2, s"$clue, rank $i")
      }
    }
  }

  test("property: the answer and kappa are the exact top-k and count of the live candidates") {
    // up to 200 dimensions: past the rerank's first 64-coordinate block,
    // where it may give up on a group
    forAllModels(12, maxDim = 200) { (model, local, spec, rng) =>
      val n = spec.n
      for (_ <- 0 until rng.nextInt(n / 4)) model.deleted += rng.nextInt(n).toLong
      for (q <- spec.queries; pto <- Seq(false, true)) {
        val alpha = 1 + rng.nextInt(n + 5)
        val beta  = 1 + rng.nextInt(alpha)
        val gamma = 1 + rng.nextInt(beta)
        val k     = 1 + rng.nextInt(n)
        def search(k: Int) =
          HdQuery.searchLocal(model, q.vec, QueryParams(k, alpha, if (pto) beta else gamma, gamma),
                              id => local(id.toInt))
        // with k = n the top k holds every live candidate: none is given up
        val (all, allStats) = search(n)
        val (ans, stats) = search(k)
        val clue = s"k=$k alpha=$alpha beta=$beta gamma=$gamma ptolemaic=$pto"
        assert(all.length == allStats.kappa && stats == allStats, clue)
        assert(all.map(_._1).distinct.length == all.length, clue)
        all.foreach { case (id, d) =>
          assert(!model.deleted.contains(id) && d == Distance.l2(local(id.toInt), q.vec), s"$clue: id $id")
        }
        assert(ans.toSeq == Distance.topK(all.iterator, k).toSeq, clue)
      }
    }
  }

  test("property: selectSmallest leaves a permutation whose first k are the k smallest") {
    val arrays: Gen[(Array[Long], Int, Int, Int)] = for {
      n      <- Gen.oneOf(Gen.choose(0, 20), Gen.choose(0, 2000))
      values <- Gen.oneOf(Gen.const((Long.MinValue to Long.MaxValue by Long.MaxValue / 2).toList),
                          Gen.listOfN(3, Gen.choose(Long.MinValue, Long.MaxValue)),
                          Gen.listOfN(50, Gen.choose(-100L, 100L)))
      from   <- Gen.choose(0, 5)
      tail   <- Gen.choose(0, 5)
      a      <- Gen.listOfN(from + n + tail, Gen.oneOf(values))
      k      <- Gen.oneOf(Gen.const(0), Gen.const(1), Gen.const(n - 1), Gen.const(n), Gen.choose(0, n))
    } yield (a.toArray, from, n, k)
    PropHelpers.forAllSamples(arrays, n = 200) { case (before, from, n, k) =>
      val a = before.clone()
      HdQuery.selectSmallest(a, from, n, k)
      val clue = s"from=$from n=$n k=$k"
      assert(a.take(from).sameElements(before.take(from)), clue)
      assert(a.drop(from + n).sameElements(before.drop(from + n)), clue)
      val range = before.slice(from, from + n).sorted
      assert(a.slice(from, from + n).sorted.sameElements(range), clue)
      val first = math.max(0, math.min(k, n))
      assert(a.slice(from, from + first).sorted.sameElements(range.take(first)), clue)
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
