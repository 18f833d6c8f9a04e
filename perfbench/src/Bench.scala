package perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession
import repro.core._

import Answers.Answer
import Stats.{mean, median, quantile}

/** One run of one workload. The untraced run (`--trace 0`) measures:
  *
  *  1. set-up: `HdIndex.build` [[Bench.Builds]] times, median wall-clock;
  *  2. one client: whole passes over the query set until at least
  *     [[Bench.MinQueries]] queries and half of `--seconds` have gone by
  *     (the churn workload instead runs its fixed operation stream);
  *  3. `nproc` clients on the same, now unchanging, model for half of `--seconds`;
  *  4. [[Bench.Inserts]] timed `HdIndex.insert` calls.
  *
  * Every answer is checked afterwards, outside the timed loops.
  *
  * The traced run (`--trace 1`) splits the build from outside, then answers
  * each query twice, through `searchLocal` and through [[Replay]], in
  * alternating order, and reports the per-layer means.
  */
final class Bench(spark: SparkSession, w: Workload, a: Main.Args) {
  import Bench._

  private val spec    = w.spec(a.seed)
  private val p       = w.params
  private val threads = Runtime.getRuntime.availableProcessors
  private val queries = spec.queries.map(_.vec)
  private val nq      = queries.length
  private val local   = spec.localData
  /** Vectors by id; grows with inserts. Read-only while clients run in parallel. */
  private val vecs    = ArrayBuffer.from(local)
  private val getVec: Long => Array[Float] = id => vecs(id.toInt)
  private val secondsNs = a.seconds * 1e9
  private val r = new Report
  private var lapStart = System.nanoTime()
  private val laps = ArrayBuffer.empty[String]

  /** Records the wall-clock since the previous lap, for the phase summary. */
  private def lap(phase: String): Unit = {
    val now = System.nanoTime()
    laps += f"$phase=${(now - lapStart) / 1e9}%.1f"
    lapStart = now
  }

  def run(): Report = {
    r.notes += s"workload=${w.name} seed=${a.seed} n=${spec.n} dim=${spec.dim} tau=${spec.tau} " +
      s"omega=${spec.omega} k=${p.k} alpha=${p.alpha} beta=${p.beta} gamma=${p.gamma} " +
      s"ptolemaic=${p.usePtolemaic} clients=1,$threads nproc=$threads " +
      s"jvm=${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"
    lap("start")
    if (a.trace) traced() else plain()
    r.notes += s"phase seconds: ${laps.mkString(" ")}"
    r
  }

  private def fail(what: String, count: Long = 1): Unit = {
    r.failed += count
    Console.err.println(s"[perfbench] FAILED x$count: $what")
  }

  private def search(model: HdIndexModel, qi: Int): (Answer, QueryStats) =
    HdQuery.searchLocal(model, queries(qi), p, getVec)

  // ---- untraced run ------------------------------------------------------

  private def plain(): Unit = {
    val model = setup()
    r("index_mb", "MB", model.indexBytes / 1e6)
    lap("setup")
    warm(model, traced = false)
    lap("warm")

    val queryMs = ArrayBuffer.empty[Double]
    val (frozen, qps1, ref) =
      if (!w.churn) {
        val t0 = System.nanoTime()
        val first = passes(MinQueries, 0.5 * secondsNs) { qi =>
          val s = System.nanoTime()
          val ans = search(model, qi)._1
          queryMs += (System.nanoTime() - s) / 1e6
          ans
        }
        val qps = queryMs.length / ((System.nanoTime() - t0) / 1e9)
        checkDistinct(model, first, queryMs.length / nq)
        (model, qps, first)
      } else {
        val t0 = System.nanoTime()
        val log = churn(model) { (m, qi) =>
          val s = System.nanoTime()
          val ans = search(m, qi)._1
          queryMs += (System.nanoTime() - s) / 1e6
          ans
        }
        val qps = queryMs.length / ((System.nanoTime() - t0) / 1e9)
        checkChurn(log)
        // the 1-thread answers on the final model, for the nproc-client check
        val ref = Array.tabulate(nq)(qi => search(log.model, qi)._1)
        checkDistinct(log.model, ref, 0)
        (log.model, qps, ref)
      }
    lap("one-client+checks")
    r("query_p50_ms", "ms", quantile(queryMs.toSeq, 0.50))
    r.info("query_p99_ms", "ms", quantile(queryMs.toSeq, 0.99))
    r("qps_1t", "1/s", qps1)
    r("qps_mt", "1/s", multiClient(frozen, ref, 0.5 * secondsNs))
    lap("clients")

    val ins = insertPhase(frozen)
    r("insert_p50_ms", "ms", quantile(ins.toSeq, 0.50))
    r.info("insert_p99_ms", "ms", quantile(ins.toSeq, 0.99))
    lap("inserts")
    r.notes += s"samples: queries=${queryMs.length} inserts=${ins.length} threads=$threads"
  }

  /** One untimed build of a small sample, so that Spark's own start-up and
    * JIT compilation stay out of the timed builds.
    */
  private def warmBuild(): Unit = {
    val small = spec.copy(n = WarmBuildN)
    HdIndex.build(spark, small.data(spark), small.localData, HdIndex.configFor(small))
    spark.catalog.clearCache()
  }

  /** `HdIndex.build` [[Builds]] times; reports the median wall-clock as
    * `setup_s`, and the heap the model's driver-side structures occupy as
    * `model_heap_mb` (the Spark Dataset it keeps is not counted).
    */
  private def setup(): HdIndexModel = {
    warmBuild()
    val secs = ArrayBuffer.empty[Double]
    var model: HdIndexModel = null
    for (_ <- 1 to Builds) {
      spark.catalog.clearCache()
      val t0 = System.nanoTime()
      model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec))
      secs += (System.nanoTime() - t0) / 1e9
    }
    spark.catalog.clearCache()
    r("setup_s", "s", median(secs.toSeq))
    r("model_heap_mb", "MB", HeapSize.deep(model, o =>
      o.isInstanceOf[Class[_]] || o.getClass.getName.startsWith("org.apache.spark.")) / 1e6)
    treeCheck(model)
    model
  }

  /** Runs `f` over whole passes of the query set until `minNs` have passed
    * and at least `minQueries` queries ran; returns each query's first
    * answer and counts a later answer that differs as a failure.
    */
  private def passes(minQueries: Int, minNs: Double)(f: Int => Answer): Array[Answer] = {
    val first = new Array[Answer](nq)
    val t0 = System.nanoTime()
    var done = 0
    while (done < minQueries || System.nanoTime() - t0 < minNs) {
      var qi = 0
      while (qi < nq) {
        val ans = f(qi)
        if (first(qi) == null) first(qi) = ans
        else if (!ans.sameElements(first(qi))) fail(s"query $qi changed its answer between passes")
        qi += 1
      }
      done += nq
    }
    r.attempted += done
    first
  }

  /** Untimed queries so that JIT compilation is done before timing starts. */
  private def warm(model: HdIndexModel, traced: Boolean): Unit = {
    val t0 = System.nanoTime()
    var qi = 0
    while (System.nanoTime() - t0 < WarmNs) {
      search(model, qi)
      if (traced) Replay.search(model, queries(qi), p, getVec, new LayerTotals)
      qi = (qi + 1) % nq
    }
  }

  /** `threads` closed-loop clients on one unchanging model; every answer
    * must equal the 1-client answer `ref`. Returns queries per second.
    */
  private def multiClient(model: HdIndexModel, ref: Array[Answer], ns: Double): Double = {
    val counts = new Array[Long](threads)
    val bad    = new java.util.concurrent.atomic.AtomicLong()
    val t0     = System.nanoTime()
    val until  = t0 + ns.toLong
    val ts = Array.tabulate(threads) { t =>
      new Thread(() => {
        var i = t * nq / threads
        while (System.nanoTime() < until) {
          val qi = i % nq
          if (!search(model, qi)._1.sameElements(ref(qi))) bad.incrementAndGet()
          counts(t) += 1
          i += 1
        }
      })
    }
    ts.foreach(_.start()); ts.foreach(_.join())
    val secs = (System.nanoTime() - t0) / 1e9
    r.attempted += counts.sum
    if (bad.get > 0) fail(s"answers with $threads clients differ from 1 client", bad.get)
    counts.sum / secs
  }

  /** [[Inserts]] timed inserts, each of a new vector into `model` itself,
    * so that every one copies an index of the same size; returns their
    * latencies (ms).
    */
  private def insertPhase(model: HdIndexModel): ArrayBuffer[Double] = {
    val ms  = ArrayBuffer.empty[Double]
    val src = spec.n.toLong + nq + ChurnBlocks // past the query ids and the churn stream's inserts
    var last = model
    for (j <- 0 until Inserts) {
      val v  = spec.point(src + j)
      val t0 = System.nanoTime()
      last = HdIndex.insert(model, model.n, v)
      ms += (System.nanoTime() - t0) / 1e6
    }
    r.attempted += Inserts
    treeCheck(last)
    ms
  }

  // ---- churn -------------------------------------------------------------

  /** What the churn stream left: the final model, each query with the index
    * state it ran against, and the write latencies.
    */
  private final class ChurnLog(val model: HdIndexModel, val deletedAt: Array[Int],
                               val queries: ArrayBuffer[(Int, Int, Int, Int, Answer)],
                               val insertMs: ArrayBuffer[Double], val deleteMs: ArrayBuffer[Double])

  /** Runs the fixed churn stream from `start`; `query(model, qi)` answers
    * one query on the model current at that point.
    */
  private def churn(start: HdIndexModel)(query: (HdIndexModel, Int) => Answer): ChurnLog = {
    val ops = Ops.churn(spec, ChurnBlocks)
    val deletedAt = Array.fill(spec.n + ChurnBlocks)(Int.MaxValue)
    val log = ArrayBuffer.empty[(Int, Int, Int, Int, Answer)] // (op, qi, n, deleted, answer)
    val insertMs, deleteMs = ArrayBuffer.empty[Double]
    var m = start
    var deleted = 0
    for ((op, j) <- ops.zipWithIndex) op match {
      case QueryOp(qi) =>
        log += ((j, qi, m.n.toInt, deleted, query(m, qi)))
      case InsertOp(src) =>
        val v = spec.point(src)
        vecs += v
        val t0 = System.nanoTime()
        m = HdIndex.insert(m, m.n, v)
        insertMs += (System.nanoTime() - t0) / 1e6
      case DeleteOp(id) =>
        val t0 = System.nanoTime()
        HdIndex.markDeleted(m, id)
        deleteMs += (System.nanoTime() - t0) / 1e6
        deletedAt(id.toInt) = j
        deleted += 1
    }
    r.attempted += ops.length
    treeCheck(m)
    new ChurnLog(m, deletedAt, log, insertMs, deleteMs)
  }

  // ---- correctness and MAP (outside the timed loops) ---------------------

  private def treeCheck(model: HdIndexModel): Unit = {
    val why = Answers.treeProblem(model)
    if (why != null) fail(why)
  }

  /** Checks each distinct query's answer on an unchanging model, reports
    * MAP@k against the exact answers, and records the answers' digest.
    * A bad answer counts once per pass it was returned on.
    */
  private def checkDistinct(model: HdIndexModel, first: Array[Answer], passesRun: Int): Unit = {
    val n = model.n.toInt
    val live = (id: Long) => id >= 0 && id < n && !model.deleted.contains(id)
    val liveCount = n - model.deleted.size
    for (qi <- 0 until nq) {
      val why = Answers.problem(first(qi), queries(qi), p.k, liveCount, live, getVec)
      if (why != null) fail(s"query $qi: $why", math.max(1, passesRun))
    }
    if (!w.churn) {
      val truth = Answers.parallel(nq, threads)(qi => Answers.exact(queries(qi), p.k, n, live, getVec))
      reportMap(first.toSeq, truth.toSeq)
      remember("answers", digest(first.toSeq))
    }
  }

  /** Checks every churn-stream answer against the index state it ran on. */
  private def checkChurn(log: ChurnLog): Unit = {
    val qs = log.queries
    val truth = Answers.parallel(qs.length, threads) { i =>
      val (j, qi, n, deleted, ans) = qs(i)
      val live = (id: Long) => id >= 0 && id < n && log.deletedAt(id.toInt) > j
      val why = Answers.problem(ans, queries(qi), p.k, n - deleted, live, getVec)
      if (why != null) Console.err.println(s"[perfbench] op $j query $qi: $why")
      (why == null, Answers.exact(queries(qi), p.k, n, live, getVec))
    }
    val bad = truth.count(!_._1)
    if (bad > 0) fail("churn answers failed their checks", bad)
    reportMap(qs.map(_._5).toSeq, truth.map(_._2).toSeq)
    remember("answers", digest(qs.map(_._5).toSeq))
  }

  private def reportMap(answers: Seq[Answer], truth: Seq[Answer]): Unit =
    if (!a.trace)
      r("map_at_100", "ratio", Metrics.mapAtK(
        answers.indices.map(i => (truth(i).map(_._1).toSeq, answers(i).map(_._1).toSeq)), p.k))

  private def digest(answers: Seq[Answer]): String = {
    val d = new Answers.Digest
    answers.foreach(d.add)
    d.hex
  }

  /** Records `value`, and fails the run if an earlier run of the same build,
    * workload and seed recorded a different `kind` value in the state
    * directory: answers and counts must repeat exactly run to run.
    */
  private def remember(kind: String, value: String): Unit = {
    r.notes += s"$kind: $value"
    val dir  = java.nio.file.Paths.get(a.state, "repeat")
    val file = dir.resolve(s"$kind-${w.name}-${a.seed}")
    java.nio.file.Files.createDirectories(dir)
    if (java.nio.file.Files.exists(file)) {
      val old = new String(java.nio.file.Files.readAllBytes(file), "UTF-8")
      if (old != value) fail(s"$kind '$value' differ from an earlier run's '$old'")
    } else java.nio.file.Files.write(file, value.getBytes("UTF-8"))
  }

  // ---- traced run --------------------------------------------------------

  private def traced(): Unit = {
    val model = buildSplit()
    lap("build-split")
    warm(model, traced = true)
    lap("warm")

    val tot = new LayerTotals
    var queriesRun, mismatches = 0L
    var searchNs, replayNs, pages, pagesModel, randomAccesses = 0L
    val perQuery = ArrayBuffer.empty[LayerTotals]

    def both(m: HdIndexModel, qi: Int): Answer = {
      val acc = new LayerTotals
      var ans: (Answer, QueryStats) = null
      var rep: Answer = null
      def viaSearch(): Unit = {
        val t0 = System.nanoTime(); ans = search(m, qi); searchNs += System.nanoTime() - t0
      }
      def viaReplay(): Unit = {
        val t0 = System.nanoTime(); rep = Replay.search(m, queries(qi), p, getVec, acc)
        replayNs += System.nanoTime() - t0
      }
      if (queriesRun % 2 == 0) { viaSearch(); viaReplay() } else { viaReplay(); viaSearch() }
      if (!rep.sameElements(ans._1)) mismatches += 1
      queriesRun += 1
      tot.add(acc)
      perQuery += acc
      pages += ans._2.leafPages
      randomAccesses += ans._2.randomAccesses
      pagesModel += modelPages(m)
      ans._1
    }

    val (insertUs, insertBytes, deleteUs) =
      if (!w.churn) {
        val first = passes(nq, 0.5 * secondsNs)(qi => both(model, qi))
        checkDistinct(model, first, queriesRun.toInt / nq)
        (0.0, 0.0, 0.0)
      } else {
        val log = churn(model)(both)
        checkChurn(log)
        val refBytes = if (compressedOops) 4 else 8
        val n0 = spec.n.toDouble
        val meanN = n0 + (log.insertMs.length - 1) / 2.0 // model size each insert copies, on average
        (mean(log.insertMs.toSeq) * 1e3,
         model.trees.length * (meanN + 1) * (refBytes + 8) + (meanN + 1) * refBytes,
         mean(log.deleteMs.toSeq) * 1e3)
      }

    lap("traced+checks")
    val q = queriesRun.toDouble
    def us(ns: Long) = ns / q / 1e3
    r("Hilbert.encode_us", "us", us(tot.encodeNs))
    r("HdQuery.window_us", "us", us(tot.windowNs))
    r("HdQuery.window_entries", "count", tot.windowEntries / q)
    r("HdQuery.window_key_bytes", "bytes", tot.windowKeyBytes / q)
    r("HdQuery.tri_us", "us", us(tot.triNs))
    r("HdQuery.tri_evals", "count", tot.triEvals / q)
    r("HdQuery.pto_us", "us", us(tot.ptoNs))
    r("HdQuery.pto_evals", "count", tot.ptoEvals / q)
    r("HdQuery.filter_keep_ratio", "ratio", tot.survivors.toDouble / tot.windowEntries)
    r("HdQuery.kappa", "count", tot.kappa / q)
    r("HdQuery.kappa_dup_ratio", "ratio", 1.0 - tot.kappa.toDouble / tot.survivors)
    r("Distance.refdist_us", "us", us(tot.refdistNs))
    r("Distance.rerank_us", "us", us(tot.rerankNs))
    r("Distance.rerank_bytes", "bytes", tot.kappa * spec.dim * 4L / q)
    r("HdQuery.search_us", "us", us(searchNs))
    r("HdQuery.residual_us", "us", us(searchNs - tot.spanNs))
    r("HdQuery.leaf_pages", "count", pages / q)
    r("HdQuery.leaf_pages_model", "count", pagesModel / q)
    r("HdQuery.random_accesses", "count", randomAccesses / q)
    r("HdIndex.insert_us", "us", insertUs)
    r("HdIndex.insert_bytes_copied", "bytes", insertBytes)
    r("HdIndex.delete_us", "us", deleteUs)
    r("trace.overhead_pct", "%", 100.0 * (replayNs - searchNs) / searchNs)
    r("trace.replay_mismatches", "count", mismatches.toDouble)
    if (mismatches > 0)
      Console.err.println(s"[perfbench] the replay differed from searchLocal on $mismatches of $queriesRun queries")
    r.notes += s"traced queries=$queriesRun"
    remember("counts", f"leaf_pages=${pages / q} leaf_pages_model=${pagesModel / q} " +
      f"random_accesses=${randomAccesses / q} window_entries=${tot.windowEntries / q}")
    writeTrace(perQuery)
  }

  /** Sec. 4.4's page count τ(height + ⌈α/Ω⌉) from `RdbTree`'s formulas. */
  private def modelPages(m: HdIndexModel): Long = {
    val c = m.cfg
    m.trees.map { tr =>
      val om = RdbTree.leafOrder(tr.width, c.omega, c.m, c.pageSize)
      RdbTree.height(m.n, tr.width, c.omega, c.m, c.pageSize) + (math.min(p.alpha.toLong, m.n) + om - 1) / om
    }.sum
  }

  /** The build split from outside: `ReferenceSelection.sss` alone,
    * `RdbTree.build` alone (forced by counting each partition's rows), and
    * `HdIndex.build`, each [[Builds]] times; the materialisation share is
    * the whole build minus the first two.
    */
  private def buildSplit(): HdIndexModel = {
    warmBuild()
    val cfg = HdIndex.configFor(spec)
    val select, tree, whole, skew = ArrayBuffer.empty[Double]
    var model: HdIndexModel = null
    for (_ <- 1 to Builds) {
      spark.catalog.clearCache()
      var t0 = System.nanoTime()
      val refs = ReferenceSelection.sss(local, cfg.m, cfg.f, cfg.seed).map(local(_))
      select += (System.nanoTime() - t0) / 1e6

      t0 = System.nanoTime()
      val rows = RdbTree.build(spark, spec.data(spark), refs, cfg.dim, cfg.tau, cfg.omega,
                               cfg.lo, cfg.hi, cfg.pageSize)
        .rdd.mapPartitions(it => Iterator.single(it.size.toDouble)).collect()
      tree += (System.nanoTime() - t0) / 1e6
      skew += rows.max / mean(rows.toSeq)
      spark.catalog.clearCache()

      t0 = System.nanoTime()
      model = HdIndex.build(spark, spec.data(spark), local, cfg)
      whole += (System.nanoTime() - t0) / 1e6
      spark.catalog.clearCache()
    }
    r("ReferenceSelection.select_ms", "ms", median(select.toSeq))
    r("RdbTree.build_ms", "ms", median(tree.toSeq))
    r("RdbTree.partition_skew", "ratio", median(skew.toSeq))
    r("HdIndex.materialise_ms", "ms",
      median(whole.indices.map(i => whole(i) - select(i) - tree(i))))
    treeCheck(model)
    model
  }

  /** Writes one JSON line per traced query with its time per layer (ns). */
  private def writeTrace(perQuery: ArrayBuffer[LayerTotals]): Unit = {
    val file = java.nio.file.Paths.get(a.state, s"trace-${w.name}-${a.seed}.jsonl")
    java.nio.file.Files.createDirectories(file.getParent)
    val out = new java.io.PrintWriter(file.toFile)
    try perQuery.zipWithIndex.foreach { case (t, i) =>
      out.println(s"""{"query": $i, "Distance.refdist": ${t.refdistNs}, "Hilbert.encode": ${t.encodeNs}, """ +
        s""""HdQuery.window": ${t.windowNs}, "HdQuery.tri": ${t.triNs}, "HdQuery.pto": ${t.ptoNs}, """ +
        s""""Distance.rerank": ${t.rerankNs}}""")
    } finally out.close()
  }
}

object Bench {
  /** `HdIndex.build` calls per run; set-up metrics are their median. */
  val Builds = 3
  /** One-client queries per run, at least: p99 then has 10 samples beyond it. */
  val MinQueries = 1000
  /** Timed inserts per untraced run, after the reads. */
  val Inserts = 2000
  /** Blocks of 10 operations in the churn stream. */
  val ChurnBlocks = 150
  /** Untimed warm-up before any timed query. */
  val WarmNs = 2e9
  /** Objects in the untimed warm-up build. */
  val WarmBuildN = 2000

  /** Whether object references take 4 bytes, which sets what an insert copies. */
  def compressedOops: Boolean =
    java.lang.management.ManagementFactory
      .getPlatformMXBean(classOf[com.sun.management.HotSpotDiagnosticMXBean])
      .getVMOption("UseCompressedOops").getValue == "true"
}
