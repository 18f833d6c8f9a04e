package repro.core

import org.scalacheck.Gen
import repro.{Oracle, PropHelpers, SparkSpec, TestFixtures, VecRow, VectorData}
import repro.baselines.LinearScan

class HdQuerySpec extends SparkSpec {

  // --- window selection (pure) -------------------------------------------

  private def key1d(v: Long): Array[Byte] = Hilbert(1, 8).encode(Array(v))

  /** Sorted keys of `width` bytes as a tree's keys, ids 0 until n, in leaf
    * pages of `order` entries, so that windows and probes cross pages.
    */
  private def keyView(keys: Array[Array[Byte]], width: Int = 1, order: Int = 2): LocalTree.Keys =
    LocalTree.load(0, 0, Hilbert(width, 8), order, keys.flatten, keys.indices.toArray).keys

  test("selectWindow picks the numerically nearest alpha keys") {
    val keys = Array(0L, 10L, 20L, 30L, 100L).map(key1d)
    // query at 22: nearest 3 are 20, 30, 10
    val (s, e) = HdQuery.selectWindow(keyView(keys), key1d(22), 3)
    assert((s, e) == (1, 4))
  }

  test("selectWindow clamps at array boundaries") {
    val keys = keyView(Array(10L, 20L, 30L).map(key1d))
    assert(HdQuery.selectWindow(keys, key1d(0), 2) == (0, 2))
    assert(HdQuery.selectWindow(keys, key1d(255), 2) == (1, 3))
    assert(HdQuery.selectWindow(keys, key1d(15), 10) == (0, 3)) // alpha > n
  }

  test("selectWindow on empty keys returns empty range") {
    assert(HdQuery.selectWindow(keyView(Array.empty), key1d(5), 4) == (0, 0))
  }

  test("selectWindow window is always contiguous of size min(alpha, n)") {
    val rng = new scala.util.Random(3)
    val keys = keyView(Array.fill(50)(rng.nextInt(256).toLong).sorted.map(key1d), order = 4)
    for (_ <- 1 to 50) {
      val q = key1d(rng.nextInt(256).toLong)
      val (s, e) = HdQuery.selectWindow(keys, q, 7)
      assert(e - s == 7)
      assert(s >= 0 && e <= keys.length)
    }
  }

  test("selectWindow rejects a negative alpha") {
    val keys = keyView(Array(10L, 20L, 30L).map(key1d))
    intercept[IllegalArgumentException](HdQuery.selectWindow(keys, key1d(15), -1))
  }

  /** out = x − y as unsigned big-endian fixed-width integers; requires
    * x >= y. The reference model's key difference.
    */
  private def subtract(x: Array[Byte], y: Array[Byte], out: Array[Byte]): Unit = {
    var borrow = 0
    var i = x.length - 1
    while (i >= 0) {
      var d = (x(i) & 0xff) - (y(i) & 0xff) - borrow
      if (d < 0) { d += 256; borrow = 1 } else borrow = 0
      out(i) = d.toByte
      i -= 1
    }
  }

  /** Index of the first key >= qkey in a sorted key array. */
  private def lowerBound(keys: collection.IndexedSeq[Array[Byte]], qkey: Array[Byte]): Int = {
    var lo = 0
    var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (Hilbert.compareKeys(keys(mid), qkey) < 0) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** The window as an outward greedy merge from qkey's insertion point: one
    * entry at a time toward the numerically closer side, ties going left.
    * [[HdQuery.selectWindow]] must return the same (start, end).
    */
  private def greedyWindow(keys: collection.IndexedSeq[Array[Byte]], qkey: Array[Byte], alpha: Int): (Int, Int) = {
    val pos = lowerBound(keys, qkey)
    val dl = new Array[Byte](qkey.length)
    val dr = new Array[Byte](qkey.length)
    var l = pos - 1
    var r = pos
    var taken = 0
    while (taken < alpha && (l >= 0 || r < keys.length)) {
      val takeLeft =
        if (l < 0) false
        else if (r >= keys.length) true
        else {
          subtract(qkey, keys(l), dl)
          subtract(keys(r), qkey, dr)
          Hilbert.compareKeys(dl, dr) <= 0
        }
      if (takeLeft) l -= 1 else r += 1
      taken += 1
    }
    (l + 1, r)
  }

  test("selectWindow equals the greedy outward merge (property)") {
    // Mostly, bytes come from {00, 01, 02, FF}, and only the last 1-3 bytes
    // of a key vary, so duplicate keys, equal distances on both sides and
    // borrows across bytes are all common, at 128-byte width too. In the
    // rest (varying = width), every byte of a key is drawn from 0-255, so
    // the sum keys(s) + keys(s + w) − 2·qkey carries through every byte.
    val alphabet = Array[Byte](0, 1, 2, -1)
    val caseGen = for {
      width   <- Gen.oneOf(1, 2, 3, 4, 128)
      full    <- Gen.choose(0, 3).map(_ == 0)
      varying <- if (full) Gen.const(width) else Gen.choose(1, math.min(width, 3))
      n       <- Gen.choose(0, 40)
      alpha   <- Gen.choose(0, n + 2)
      qkind   <- Gen.choose(0, 3)
      seed    <- Gen.choose(0L, Long.MaxValue)
    } yield (width, full, varying, n, alpha, qkind, seed)
    var ties = 0
    var fullWidth = 0
    PropHelpers.forAllSamples(caseGen, n = 20000) { case (width, full, varying, n, alpha, qkind, seed) =>
      val rng = new scala.util.Random(seed)
      def byte(): Byte = if (full) rng.nextInt(256).toByte else alphabet(rng.nextInt(4))
      val prefix = Array.fill(width - varying)(byte())
      def draw(): Array[Byte] = prefix ++ Array.fill(varying)(byte())
      val keys = Array.fill(n)(draw()).sorted(Hilbert.keyOrdering)
      val qkey = qkind match {
        case 0 if n > 0 => keys(rng.nextInt(n)) // equal to a key
        case 1 => Array.fill(width)(0.toByte)   // at or below every key
        case 2 => Array.fill(width)(-1.toByte)  // at or above every key
        case _ => draw()
      }
      val expect = greedyWindow(keys, qkey, alpha)
      // pages of 1 to 5 entries
      val order = 1 + (seed % 5).toInt
      assert(HdQuery.selectWindow(keyView(keys, width, order), qkey, alpha) == expect,
             s"width=$width n=$n alpha=$alpha order=$order query=${Hilbert.hex(qkey)}")
      val (s, e) = expect
      if (full && width == 128 && s < e && e < n) fullWidth += 1
      // a tie decided at the window's edge: keys(s) went in, keys(e) did not
      if (s < lowerBound(keys, qkey) && e < n) {
        val dl = new Array[Byte](width)
        val dr = new Array[Byte](width)
        subtract(qkey, keys(s), dl)
        subtract(keys(e), qkey, dr)
        if (Hilbert.compareKeys(dl, dr) == 0) ties += 1
      }
    }
    assert(ties > 0, "no case had a tie at the window's edge")
    assert(fullWidth > 0, "no 128-byte case with full-range bytes had a window edge to decide")
  }

  test("selectWindow breaks an exact tie at 128-byte width to the left") {
    // keys q − d − 1 < q − d < q < q + d < q + d + 1 for random q in
    // [2^1022, 2^1023) and d < 2^1020, so the differences borrow and the sums
    // carry at bytes all across the key; α = 1 and α = 3 each end on a tie
    val rng = new scala.util.Random(11)
    val q = (BigInt(1) << 1022) | (BigInt(1, Array.fill(128)(rng.nextInt(256).toByte)) >> 2)
    val d = BigInt(1, Array.fill(128)(rng.nextInt(256).toByte)) >> 4
    def key(v: BigInt): Array[Byte] = {
      val raw = v.toByteArray.takeRight(128)
      Array.fill[Byte](128 - raw.length)(0) ++ raw
    }
    val keys = Array(key(q - d - 1), key(q - d), key(q + d), key(q + d + 1))
    val qkey = key(q)
    val view = keyView(keys, 128)
    assert(HdQuery.selectWindow(view, qkey, 1) == (1, 2))
    assert(HdQuery.selectWindow(view, qkey, 2) == (1, 3))
    assert(HdQuery.selectWindow(view, qkey, 3) == (0, 3))
    for (alpha <- 0 to 5) assert(HdQuery.selectWindow(view, qkey, alpha) == greedyWindow(keys, qkey, alpha))
  }

  // --- end-to-end ---------------------------------------------------------

  lazy val model: HdIndexModel = TestFixtures.tinyModel
  lazy val queries: Array[VecRow] = TestFixtures.tinyQueries
  lazy val truth: Array[Array[(Long, Double)]] = TestFixtures.tinyTruth
  private val params = QueryParams.recommended(k = 10, alpha = 512)

  test("query returns k results sorted by (distance, id)") {
    val (ans, _) = HdQuery.searchLocal(model, queries(0).vec, params, TestFixtures.getVec)
    assert(ans.length == 10)
    for (i <- 1 until ans.length)
      assert(ans(i - 1)._2 < ans(i)._2 || (ans(i - 1)._2 == ans(i)._2 && ans(i - 1)._1 < ans(i)._1))
  }

  test("reported distances are the true distances to the returned ids") {
    val (ans, _) = HdQuery.searchLocal(model, queries(1).vec, params, TestFixtures.getVec)
    ans.foreach { case (id, d) =>
      assert(math.abs(d - Distance.l2(TestFixtures.tinyLocal(id.toInt), queries(1).vec)) < 1e-9)
    }
  }

  test("a database point queries back itself at rank 1") {
    val v = TestFixtures.tinyLocal(123)
    val (ans, _) = HdQuery.searchLocal(model, v, params, TestFixtures.getVec)
    assert(ans.head._1 == 123L)
    assert(ans.head._2 == 0.0)
  }

  test("MAP@10 on tiny clustered data is high (triangular filter)") {
    val per = queries.indices.map { qi =>
      val (ans, _) = HdQuery.searchLocal(model, queries(qi).vec, params, TestFixtures.getVec)
      (truth(qi).map(_._1).toSeq, ans.map(_._1).toSeq)
    }
    val map10 = Metrics.mapAtK(per, 10)
    assert(map10 > 0.75, s"MAP@10 = $map10 too low for a 2000-point clustered set")
  }

  test("Ptolemaic filtering never hurts MAP at aggressive reduction (Sec. 5.2.5)") {
    val aggressiveTri = QueryParams(10, 256, 32, 32)
    val aggressivePto = QueryParams(10, 256, 256, 32)
    def mapOf(p: QueryParams): Double = Metrics.mapAtK(
      queries.indices.map { qi =>
        val (ans, _) = HdQuery.searchLocal(model, queries(qi).vec, p, TestFixtures.getVec)
        (truth(qi).map(_._1).toSeq, ans.map(_._1).toSeq)
      }, 10)
    assert(mapOf(aggressivePto) >= mapOf(aggressiveTri) - 0.02)
  }

  test("larger alpha does not reduce MAP") {
    def mapWithAlpha(alpha: Int): Double = Metrics.mapAtK(
      queries.indices.take(10).map { qi =>
        val p = QueryParams.recommended(10, alpha)
        val (ans, _) = HdQuery.searchLocal(model, queries(qi).vec, p, TestFixtures.getVec)
        (truth(qi).map(_._1).toSeq, ans.map(_._1).toSeq)
      }, 10)
    assert(mapWithAlpha(1024) >= mapWithAlpha(64) - 0.02)
  }

  test("alpha = n degenerates to exact search (every object a candidate, gamma = n)") {
    val n = model.n.toInt
    val p = QueryParams(10, n, n, n)
    for (qi <- 0 until 5) {
      val (ans, _) = HdQuery.searchLocal(model, queries(qi).vec, p, TestFixtures.getVec)
      assert(ans.map(_._1).toSeq == truth(qi).take(10).map(_._1).toSeq)
    }
  }

  test("QueryParams rejects k <= 0 and alpha, beta, gamma out of order") {
    assert(QueryParams(3, 2, 2, 2).gamma == 2)
    intercept[IllegalArgumentException](QueryParams(0, 64, 16, 16))
    intercept[IllegalArgumentException](QueryParams(10, 64, 16, 0))  // gamma = 0
    intercept[IllegalArgumentException](QueryParams(10, 64, 16, 32)) // gamma > beta
    intercept[IllegalArgumentException](QueryParams(10, 64, 128, 32)) // beta > alpha
    intercept[IllegalArgumentException](params.copy(k = -1))
  }

  test("the Ptolemaic filter is on exactly when gamma < beta; recommended keeps the paper's ratios") {
    for ((p, pto) <- Seq(QueryParams(10, 256, 64, 64) -> false, QueryParams(10, 256, 256, 64) -> true,
                         QueryParams(10, 64, 64, 64) -> false, QueryParams(10, 256, 64, 16) -> true,
                         QueryParams(1, 2, 2, 1) -> true))
      assert(p.usePtolemaic == pto && pto == (p.gamma < p.beta), p)
    def abg(p: QueryParams) = (p.k, p.alpha, p.beta, p.gamma)
    // triangular: beta = gamma = max(k, alpha / 4); Ptolemaic: beta = alpha
    assert(abg(QueryParams.recommended(10, 512)) == (10, 512, 128, 128))
    assert(abg(QueryParams.recommended(10, 512, usePtolemaic = true)) == (10, 512, 512, 128))
    assert(abg(QueryParams.recommended(100, 800)) == (100, 800, 200, 200))
    assert(abg(QueryParams.recommended(100, 1000, usePtolemaic = true)) == (100, 1000, 1000, 250))
    assert(abg(QueryParams.recommended(100, 256)) == (100, 256, 100, 100))
    assert(abg(QueryParams.recommended(100, 256, usePtolemaic = true)) == (100, 256, 256, 100))
    assert(abg(QueryParams.recommended(100, 100, usePtolemaic = true)) == (100, 100, 100, 100))
    assert(!QueryParams.recommended(10, 512).usePtolemaic)
    assert(QueryParams.recommended(10, 512, usePtolemaic = true).usePtolemaic)
  }

  test("with alpha = beta = gamma no bound is computed: a model without refdists answers as the real one") {
    // the same trees and references through the public constructor, as
    // withRefs builds a model, but every refdist row empty, so reading one fails
    val noRefdists = new HdIndexModel(model.cfg, model.refIds, model.refs, model.refMatrix,
                                      model.trees, Refdists(0, Array.fill(model.n)(Array.emptyFloatArray)))
    for (alpha <- Seq(1, 64, 512, model.n + 5); qr <- queries) {
      val p = QueryParams(10, alpha, alpha, alpha)
      val (want, wantStats) = HdQuery.searchLocal(model, qr.vec, p, TestFixtures.getVec)
      val (got, stats) = HdQuery.searchLocal(noRefdists, qr.vec, p, TestFixtures.getVec)
      assert(got.toSeq == want.toSeq && stats == wantStats, s"query ${qr.id} under $p")
    }
  }

  test("searchLocal rejects a query of the wrong dimension, with NaN or with Inf") {
    val dim = model.cfg.dim
    for (len <- Seq(dim - 1, dim + 1)) {
      val e = intercept[IllegalArgumentException](
        HdQuery.searchLocal(model, new Array[Float](len), params, TestFixtures.getVec))
      assert(e.getMessage.contains(s"query has $len dimensions"), e.getMessage)
    }
    for (bad <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)) {
      val q = queries(0).vec.clone()
      q(dim / 2) = bad
      val e = intercept[IllegalArgumentException](
        HdQuery.searchLocal(model, q, params, TestFixtures.getVec))
      assert(e.getMessage.contains(s"coordinate ${dim / 2} is $bad"), e.getMessage)
    }
  }

  test("build rejects an object with NaN or Inf, naming the object and coordinate") {
    val spec = TestFixtures.tiny
    for (bad <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)) {
      val local = TestFixtures.tinyLocal.clone()
      local(37) = local(37).clone()
      local(37)(5) = bad
      val e = intercept[IllegalArgumentException](
        HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec)))
      assert(e.getMessage.contains(s"object 37 coordinate 5 is $bad"), e.getMessage)
    }
  }

  /** [[HdQuery.searchLocal]] as it was before its primitive kernel: greedy
    * window, full sort of the packed (bound, position) longs, scalar bounds,
    * a `mutable.Set` union and a full sort by (distance, id). Both cuts run
    * in every setting, so where a cut keeps everything the kernel, which
    * skips it, must still equal the reference. Also returns the number of trees whose γ cut split a
    * tie of Ptolemaic bounds and kept other entries than a cut by
    * (Ptolemaic bound, window position) would: there the triangular rank
    * decided which of the tied entries survived.
    */
  private def pipelineReference(m: HdIndexModel, q: Array[Float], p: QueryParams,
                                getVec: Long => Array[Float]): (Array[(Long, Double)], QueryStats, Int) = {
    def orderByBound(n: Int, bound: Int => Double): Array[Long] = {
      val packed = Array.tabulate(n) { i =>
        (java.lang.Float.floatToIntBits(bound(i).toFloat).toLong << 32) | i.toLong
      }
      java.util.Arrays.sort(packed)
      packed
    }
    val cfg = m.cfg
    val dq = m.refs.map(r => Distance.l2(q, r))
    var pages = 0L
    var tiesDecided = 0
    val cands = scala.collection.mutable.Set.empty[Long]
    m.trees.indices.foreach { t =>
      val tree = m.trees(t)
      val qkey = Hilbert(tree.width, cfg.omega).encodeVector(q, tree.fromDim, cfg.lo, cfg.hi)
      val (s, e) = greedyWindow(tree.keys, qkey, p.alpha)
      val ids = (s until e).map(tree.ids(_).toLong)
      val rd: Int => Array[Float] = i => m.refdistsById(ids(i).toInt)
      val n = ids.length
      val byTri = orderByBound(n, i => HdQuery.triBound(dq, rd(i)))
      val beta = byTri.take(math.min(n, p.beta)).map(_.toInt)
      val byPto = orderByBound(beta.length, j => HdQuery.ptolemaicBound(dq, rd(beta(j)), m.refMatrix))
      val g = math.min(beta.length, p.gamma)
      val byPos = byPto.map(pk => (pk & 0xFFFFFFFF00000000L) | beta(pk.toInt)).sorted
      if (byPto.take(g).map(pk => beta(pk.toInt)).toSet != byPos.take(g).map(_.toInt).toSet)
        tiesDecided += 1
      cands ++= byPto.take(g).map(pk => ids(beta(pk.toInt)))
      val om = RdbTree.leafOrder(tree.width, cfg.omega, cfg.m, cfg.pageSize)
      pages += RdbTree.height(m.n, tree.width, cfg.omega, cfg.m, cfg.pageSize) + (e - s + om - 1) / om
    }
    cands --= m.deleted
    // a full sort, so the reference shares no top-k code with the kernel
    val ans = cands.toArray.map(id => id -> Distance.l2(getVec(id), q))
      .sortBy { case (id, d) => (d, id) }.take(p.k)
    (ans, QueryStats(pages, cands.size.toLong, cands.size), tiesDecided)
  }

  /** 160 integer coordinates in [0, 3]: past the rerank's first
    * 64-coordinate block, where it may stop early, and with many exact ties
    * between distances.
    */
  private lazy val wide = VectorData.tiny.copy(name = "wide", dim = 160, n = 1000, lo = 0, hi = 3,
                                               integerValued = true, stdFrac = 0.3)
  private lazy val wideLocal = wide.localData
  private lazy val wideModel = HdIndex.build(spark, wide.data(spark), wideLocal, HdIndex.configFor(wide))

  /** The tiny model's trees with other references (ids into the tiny
    * data), through the public constructor: refdists and `refMatrix` are
    * recomputed, the keys do not depend on the references.
    */
  private def withRefs(refIds: Array[Int]): HdIndexModel = {
    val refs = refIds.map(TestFixtures.tinyLocal(_))
    new HdIndexModel(model.cfg.copy(m = refs.length), refIds, refs,
                     Array.tabulate(refs.length, refs.length)((i, j) => Distance.l2(refs(i), refs(j))),
                     model.trees, Refdists(refs.length, TestFixtures.tinyLocal.map(v => refs.map(r => Distance.l2(v, r).toFloat))))
  }

  test("searchLocal equals the sort/Set/topK pipeline (answers and stats)") {
    val n = model.n.toInt
    val settings = Seq(
      params,
      QueryParams(10, 256, 256, 32),
      QueryParams(10, 256, 64, 16),
      QueryParams(10, 64, 64, 64),                      // gamma = window size: no cut
      QueryParams(100, 64, 32, 8),                      // fewer candidates than k
      QueryParams(10, n + 5, 100, 100),                 // alpha >= n
      QueryParams(10, n + 5, 300, 100),
      QueryParams(1, 256, 64, 64),                      // k = 1: most of the rerank is beyond worst
      QueryParams(5, 256, 256, 64))
    // a private copy of the model, so marks don't leak into shared fixtures
    val withDeletes = new HdIndexModel(model.cfg, model.refIds, model.refs, model.refMatrix,
                                       model.trees, model.refdistsById)
    withDeletes.deleted ++= truth.take(10).flatMap(_.take(3).map(_._1)) ++ (0L until model.n by 7L)
    // two more copies of each query's 20 nearest objects: equal vectors have
    // equal bounds, so ties at the beta and gamma cuts are common
    val copied = truth.flatMap(_.take(20).map(_._1)).distinct
    val source = copied ++ copied
    val withCopies = source.indices.foldLeft(model) { (m, i) =>
      HdIndex.insert(m, m.n, TestFixtures.getVec(source(i)))
    }
    val getCopy: Long => Array[Float] =
      id => TestFixtures.getVec(if (id < model.n) id else source((id - model.n).toInt))
    // no references (Multicurves): every bound is 0
    val curves = TestFixtures.tinyCurves
    assert(curves.refs.isEmpty)
    // references 0 and 1 coincide: d(R_0, R_1) = 0, so Eq. 6 skips that pair
    val dupRefs = withRefs(model.refIds.updated(1, model.refIds(0)))
    assert(dupRefs.refMatrix(0)(1) == 0.0 && dupRefs.refMatrix(0)(2) > 0)
    // m = 1: no pairs, so every Ptolemaic bound is 0 and the triangular rank
    // decides the whole γ cut
    val oneRef = withRefs(model.refIds.take(1))
    var tiedAtK = 0
    // queries where the triangular rank decided a tie at the γ cut, with
    // β = α and with β < α
    var decidedFull = 0
    var decidedBeta = 0
    for ((m, getVec, qs) <- Seq((model, TestFixtures.getVec _, queries), (withDeletes, TestFixtures.getVec _, queries),
                                (withCopies, getCopy, queries), (curves, TestFixtures.getVec _, queries),
                                (dupRefs, TestFixtures.getVec _, queries), (oneRef, TestFixtures.getVec _, queries),
                                (wideModel, (id: Long) => wideLocal(id.toInt), wide.queries));
         p <- settings; qr <- qs) {
      val (ans, stats) = HdQuery.searchLocal(m, qr.vec, p, getVec)
      val (refAns, refStats, decided) = pipelineReference(m, qr.vec, p, getVec)
      assert(ans.toSeq == refAns.toSeq, s"answers differ for query ${qr.id} under $p")
      assert(stats == refStats, s"stats differ for query ${qr.id} under $p")
      val next = pipelineReference(m, qr.vec, p.copy(k = p.k + 1), getVec)._1
      if (next.length > p.k && next(p.k - 1)._2 == next(p.k)._2) tiedAtK += 1
      if (decided > 0) { if (p.beta == p.alpha) decidedFull += 1 else decidedBeta += 1 }
    }
    assert(tiedAtK > 20, s"only $tiedAtK answers tie at the k-th distance")
    assert(decidedFull > 0 && decidedBeta > 0,
           s"ties decided by the triangular rank: $decidedFull with beta = alpha, $decidedBeta with beta < alpha")
  }

  test("answers do not depend on the number of query threads") {
    val ps = Seq(params, QueryParams(10, 256, 256, 64))
    def all(): Seq[Seq[(Long, Double)]] =
      for (p <- ps; qr <- queries) yield HdQuery.searchLocal(model, qr.vec, p, TestFixtures.getVec)._1.toSeq
    val single = all()
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val runs = (0 until 4).map(_ => pool.submit(() => (0 until 5).map(_ => all())))
      runs.foreach(_.get().foreach(got => assert(got == single)))
    } finally pool.shutdown()
  }

  // --- the per-thread kernel ----------------------------------------------

  /** f on a new thread, whose kernel is fresh. */
  private def onFreshThread[T](f: => T): T = {
    val task = new java.util.concurrent.FutureTask[T](() => f)
    new Thread(task).start()
    task.get()
  }

  /** tiny's generator at 20 times its n, queried with tiny's queries. */
  private lazy val big = TestFixtures.tiny.copy(name = "tiny20", n = 20 * TestFixtures.tiny.n)
  private lazy val bigLocal = big.localData
  private lazy val bigModel = HdIndex.build(spark, big.data(spark), bigLocal, HdIndex.configFor(big))
  private lazy val bigGetVec: Long => Array[Float] = id => bigLocal(id.toInt)

  private val ptoParams = QueryParams(10, 256, 256, 64)

  /** Bytes the calling thread allocates per query of every tiny query on m
    * under p, over 10 passes, and the mean κ.
    */
  private def bytesPerQuery(m: HdIndexModel, p: QueryParams, getVec: Long => Array[Float]): (Double, Double) = {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    def pass(): Double = queries.map(q => HdQuery.searchLocal(m, q.vec, p, getVec)._2.kappa).sum.toDouble
    val b0 = mx.getCurrentThreadAllocatedBytes
    var kappa = 0.0
    for (_ <- 1 to 10) kappa += pass()
    ((mx.getCurrentThreadAllocatedBytes - b0).toDouble / (10 * queries.length), kappa / (10 * queries.length))
  }

  test("bytes allocated per query do not grow with n (tiny against 20 times its n)") {
    // Per-query memos of 4 B per object would differ by 152 KB per filter.
    // The margin: 1 KB, plus 32 B per candidate, for the boxed id that each
    // getVec call may take (whether the JIT removes the box varies by run).
    for (p <- Seq(params, ptoParams)) {
      // warmed up on both, then the least of 3 alternating measurements
      val runs = for (_ <- 1 to 4) yield
        (bytesPerQuery(model, p, TestFixtures.getVec), bytesPerQuery(bigModel, p, bigGetVec))
      val (small, smallKappa) = runs.tail.map(_._1).minBy(_._1)
      val (large, largeKappa) = runs.tail.map(_._2).minBy(_._1)
      assert(math.abs(large - small) < 1024 + 32 * math.max(smallKappa, largeKappa),
             f"$p: $small%.0f B per query (κ $smallKappa%.1f) at n = ${model.n}, " +
             f"$large%.0f B (κ $largeKappa%.1f) at n = ${bigModel.n}")
    }
  }

  /** Bytes the calling thread allocates per [[HdIndex.insert]] of each tiny
    * query's vector into m itself, over 10 passes.
    */
  private def bytesPerInsert(m: HdIndexModel): Double = {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val b0 = mx.getCurrentThreadAllocatedBytes
    for (_ <- 1 to 10; q <- queries) HdIndex.insert(m, m.n, q.vec)
    (mx.getCurrentThreadAllocatedBytes - b0).toDouble / (10 * queries.length)
  }

  test("bytes allocated per insert do not grow with n (tiny against 20 times its n)") {
    // An insert copies one page per tree and the page and chunk directories.
    // At 20 times n the directories hold (20 − 1) · 2000 / Ω ≈ 528 more
    // pages per tree (Ω = 72; 8 B each in `pages` and `starts`) and ≈ 594
    // more chunks (4 B each): ≈ 19 KB more. Copying every tree's keys and
    // ids would cost τ · 8 B · 38 000 ≈ 1.2 MB more.
    val runs = for (_ <- 1 to 4) yield (bytesPerInsert(model), bytesPerInsert(bigModel))
    val small = runs.tail.map(_._1).min
    val large = runs.tail.map(_._2).min
    assert(math.abs(large - small) < 32 * 1024,
           f"$small%.0f B per insert at n = ${model.n}, $large%.0f B at n = ${bigModel.n}")
  }

  test("one thread interleaving models and settings answers as a fresh thread does") {
    val tau2 = HdIndex.build(spark, TestFixtures.tiny.data(spark), TestFixtures.tinyLocal,
                             HdIndex.configFor(TestFixtures.tiny).copy(tau = 2))
    // the queries themselves inserted, so the grown model holds n + 20 ids
    val grown = queries.foldLeft(model)((m, q) => HdIndex.insert(m, m.n, q.vec))
    val grownGetVec: Long => Array[Float] =
      id => if (id < model.n) TestFixtures.getVec(id) else queries((id - model.n).toInt).vec
    val oneRef = withRefs(model.refIds.take(1))
    val curves = TestFixtures.tinyCurves
    val wideGetVec: Long => Array[Float] = id => wideLocal(id.toInt)
    val wideQueries = wide.queries
    val cases = Seq(
      (model, TestFixtures.getVec _, params), (model, TestFixtures.getVec _, ptoParams),
      (bigModel, bigGetVec, params), (bigModel, bigGetVec, ptoParams),
      (curves, TestFixtures.getVec _, QueryParams(10, 256, 256, 256)), (oneRef, TestFixtures.getVec _, ptoParams),
      (tau2, TestFixtures.getVec _, params), (tau2, TestFixtures.getVec _, ptoParams),
      (grown, grownGetVec, params), (grown, grownGetVec, QueryParams(10, 128, 64, 16)),
      (wideModel, wideGetVec, params), (wideModel, wideGetVec, ptoParams))
    assert(Set(curves.refs.length, oneRef.refs.length, model.refs.length).size == 3)
    assert(tau2.trees.length != model.trees.length && grown.n == model.n + queries.length)
    def query(c: Int, qi: Int): (Seq[(Long, Double)], QueryStats) = {
      val (m, getVec, p) = cases(c)
      val q = if (m eq wideModel) wideQueries(qi % wideQueries.length).vec else queries(qi).vec
      val (ans, stats) = HdQuery.searchLocal(m, q, p, getVec)
      (ans.toSeq, stats)
    }
    val fresh = for (qi <- queries.indices; c <- cases.indices) yield onFreshThread(query(c, qi))
    val kernel = HdQuery.threadKernel
    for (_ <- 1 to 2) {
      val shared = for (qi <- queries.indices; c <- cases.indices) yield query(c, qi)
      shared.zip(fresh).zipWithIndex.foreach { case ((got, want), i) =>
        assert(got == want, s"query ${i / cases.length} under case ${i % cases.length}")
      }
    }
    assert(HdQuery.threadKernel eq kernel)
  }

  test("a getVec that queries again on the same thread still gets correct answers") {
    val inner = queries.map(q => HdQuery.searchLocal(bigModel, q.vec, ptoParams, bigGetVec))
    var innerCalls = 0
    val reentrant: Long => Array[Float] = { id =>
      val qi = innerCalls % queries.length
      val (ans, stats) = HdQuery.searchLocal(bigModel, queries(qi).vec, ptoParams, bigGetVec)
      assert(ans.toSeq == inner(qi)._1.toSeq && stats == inner(qi)._2, s"inner query $qi")
      innerCalls += 1
      TestFixtures.getVec(id)
    }
    for (p <- Seq(params, ptoParams); qr <- queries) {
      val want = HdQuery.searchLocal(model, qr.vec, p, TestFixtures.getVec)
      val got = HdQuery.searchLocal(model, qr.vec, p, reentrant)
      assert(got._1.toSeq == want._1.toSeq && got._2 == want._2, s"query ${qr.id} under $p")
    }
    assert(innerCalls > 0)
  }

  test("answers hold across the kernel's epoch wrap, which clears the memos") {
    val ps = Seq(params, ptoParams)
    val want = for (p <- ps; qr <- queries) yield HdQuery.searchLocal(model, qr.vec, p, TestFixtures.getVec)
    def check(p: QueryParams, qi: Int): Unit = {
      val (ans, stats) = HdQuery.searchLocal(model, queries(qi).vec, p, TestFixtures.getVec)
      val (wantAns, wantStats) = want(ps.indexOf(p) * queries.length + qi)
      assert(ans.toSeq == wantAns.toSeq && stats == wantStats, s"query $qi under $p")
    }
    onFreshThread {
      val kernel = HdQuery.threadKernel
      // epochs 1 to 10 leave memo slots that outlive the wrap unless cleared
      for (qi <- 0 until 5; p <- ps) check(p, qi)
      assert(kernel.epoch == 10)
      // other queries at epochs Int.MaxValue - 1 and Int.MaxValue, then 1 to 8
      kernel.epoch = Int.MaxValue - 2
      for (qi <- 5 until 10; p <- ps) check(p, qi)
      assert(kernel.epoch == 8, s"epoch ${kernel.epoch}: the epoch did not wrap")
      // and a wrap at the next query, then epochs 1 to 20
      kernel.epoch = Int.MaxValue
      for (qi <- 10 until 20; p <- ps.reverse) check(p, qi)
      assert(kernel.epoch == 20)
      // the same queries at the same epochs 1 to 10 after a wrap: an
      // uncleared id-to-slot table would read each id's old slot as this
      // query's, drop the id and change kappa
      kernel.epoch = Int.MaxValue
      for (qi <- 10 until 15; p <- ps.reverse) check(p, qi)
      assert(kernel.epoch == 10)
    }
  }

  test("a kernel keeps no reference to a model, a query or a vector between queries") {
    // everything reachable only through the query made here
    def queryAndForget(): Seq[java.lang.ref.WeakReference[AnyRef]] = {
      val m = withRefs(model.refIds.take(4))
      val q = queries(0).vec.clone()
      val vectors = TestFixtures.tinyLocal.map(_.clone())
      for (p <- Seq(params, ptoParams)) HdQuery.searchLocal(m, q, p, id => vectors(id.toInt))
      (Seq[AnyRef](m, m.refdistsById, m.refdistsById.chunks, m.refMatrix, q) ++ vectors).map(new java.lang.ref.WeakReference[AnyRef](_))
    }
    val refs = queryAndForget()
    var tries = 0
    while (refs.exists(_.get != null) && tries < 10) { System.gc(); Thread.sleep(20); tries += 1 }
    assert(refs.forall(_.get == null), "the kernel still reaches the model, the query or a vector")
  }

  private def answerDigest(p: QueryParams): String =
    TestFixtures.answerDigest(Seq(p.k))((q, k) =>
      HdQuery.searchLocal(model, q, p.copy(k = k), TestFixtures.getVec)._1)

  test("answers equal the pinned golden digest (triangular and Ptolemaic)") {
    assert(answerDigest(params) ==
      "47bcdcb6356b5600c4caa65ace30dd65bd4340132cf4a2767b7ae0bc521a8abc")
    assert(answerDigest(QueryParams(10, 256, 256, 64)) ==
      "97e248be20d4ee2897c299b4df6ba4154d54241cda19fba81f3d8c991130dcf8")
  }

  test("query stats count pages and candidate accesses") {
    val (_, stats) = HdQuery.searchLocal(model, queries(0).vec, params, TestFixtures.getVec)
    assert(stats.leafPages > 0)
    assert(stats.kappa >= params.gamma) // at least gamma (all trees agree)
    assert(stats.kappa <= model.cfg.tau * params.gamma) // at most tau*gamma (Sec. 4.2)
    assert(stats.randomAccesses == stats.kappa)
  }

  test("kappa bounds hold across many queries (gamma <= kappa <= tau*gamma)") {
    queries.take(20).foreach { q =>
      val (_, st) = HdQuery.searchLocal(model, q.vec, params, TestFixtures.getVec)
      assert(st.kappa >= params.gamma && st.kappa <= model.cfg.tau * params.gamma)
    }
  }

  test("final top-k ranking of candidates matches SQL ordering (DuckDB oracle)") {
    import spark.implicits._
    // candidates + exact distances of one query, ranked by our code vs SQL
    val q = queries(2).vec
    val (ans, _) = HdQuery.searchLocal(model, q, params.copy(k = 20), TestFixtures.getVec)
    val candDf = ans.toSeq.map { case (id, d) => (id.toString, d) }
      .toDF("id", "dist")
    val got = candDf.orderBy($"dist", $"id".cast("long")).limit(10).select("id")
    Oracle.assertEquivalent(got,
      "SELECT id FROM c ORDER BY CAST(dist AS DOUBLE), CAST(id AS BIGINT) LIMIT 10",
      "c" -> candDf)
  }

  test("ground truth via Spark matches a driver-side brute force") {
    val local = TestFixtures.tinyLocal
    val q = queries(3)
    val brute = local.indices.map(i => (i.toLong, Distance.l2(local(i), q.vec)))
      .sortBy { case (id, d) => (d, id) }.take(100)
    assert(truth(3).toSeq == brute)
  }

  test("ground truth helper handles multiple queries consistently") {
    val single = LinearScan.groundTruth(spark, TestFixtures.tiny.data(spark), Array(queries(5)), 10)
    assert(single(0).toSeq == truth(5).take(10).toSeq)
  }
}
