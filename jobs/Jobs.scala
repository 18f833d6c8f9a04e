package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.VectorData
import repro.baselines._
import repro.core._
import repro.harness.Harness
import repro.imagesearch.ImageSearch

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  def get(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** `spark-submit --class repro.jobs.Table3Job` — prints Table 3 (leaf
  * orders); pure Eq. 4 arithmetic, exact paper match.
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val rows = Seq(("SIFTn", 8, 16), ("Yorck", 32, 16), ("SUN", 32, 64),
                   ("Audio", 32, 24), ("Enron", 16, 86), ("Glove", 32, 13))
    println("Dataset  omega  eta  leafOrder")
    rows.foreach { case (n, om, eta) =>
      println(f"$n%-8s $om%5d $eta%4d ${RdbTree.leafOrder(eta, om, 10)}%9d")
    }
  }
}

/** `--class repro.jobs.Table4Job` — prints the dataset registry (Table 4). */
object Table4Job {
  def main(args: Array[String]): Unit = {
    println("dataset   nu  paperN      ourN   domain        queries")
    VectorData.all.foreach { s =>
      val dom = s"[${s.lo},${s.hi}]"
      println(f"${s.name}%-9s ${s.dim}%4d ${s.paperN}%10d ${s.n}%8d $dom%-14s ${s.nQueries}%6d")
    }
  }
}

/** `--class repro.jobs.BuildIndexJob <dataset>` — Algo 1 as a distributed
  * job; prints the built index's shape, size and build wall-clock.
  */
object BuildIndexJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("hdindex-build")
    val spec = VectorData.byName(args.headOption.getOrElse("sift10k"))
    val local = spec.localData
    val t0 = System.nanoTime()
    val model = HdIndex.build(spark, spec.data(spark), local, HdIndex.configFor(spec))
    val buildMs = (System.nanoTime() - t0) / 1000000L
    println(s"built HD-Index on ${spec.name}: n=${model.n} tau=${model.cfg.tau} " +
            s"m=${model.cfg.m} indexMB=${model.indexBytes / 1e6} buildMs=$buildMs")
    spark.stop()
  }
}

/** `--class repro.jobs.Table5Job [dataset ...]` — the full method comparison
  * behind Table 5 (all datasets when no argument).
  */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("table5")
    val specs = if (args.isEmpty) VectorData.all else args.toSeq.map(VectorData.byName)
    specs.foreach { spec =>
      val rs = Harness.compareAll(spark, spec, k = 100)
      println(Harness.formatTable(rs, 100))
      println(Harness.formatGains(rs, 100))
    }
    spark.stop()
  }
}

/** `--class repro.jobs.Table6Job` — the Sec. 5.5 Borda-count image-search
  * experiment behind Table 6.
  */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("table6")
    val corpus = ImageSearch.corpus()
    val truthIdx = LinearScan.build(spark, corpus.spec,
      ImageSearch.descriptorDs(spark, corpus), corpus.descriptors)
    println("method        imageMAP@5   ms/descriptor")
    ImageSearch.run(spark, corpus, truthIdx).foreach { case (m, map5, ms) =>
      println(f"$m%-12s $map5%10.3f $ms%14.3f")
    }
    spark.stop()
  }
}

/** `--class repro.jobs.QueryJob <dataset> [k] [alpha]` — build + query one
  * dataset with HD-Index, reporting MAP/ratio/time (the Table 5 HD-Index
  * columns in isolation).
  */
object QueryJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("hdindex-query")
    val spec  = VectorData.byName(args.headOption.getOrElse("sift10k"))
    val k     = args.lift(1).map(_.toInt).getOrElse(100)
    val hd    = args.lift(2).fold(new HdIndexMethod())(a => new HdIndexMethod(alphaOverride = a.toInt))
    val prep  = Harness.prepare(spark, spec, k)
    val r     = Harness.measure(spark, prep, hd, k)
    println(f"${spec.name}: MAP@$k=${r.map}%.3f ratio=${r.ratio}%.3f " +
            f"q=${r.queryMillis}%.3f ms idx=${r.indexMB}%.2f MB build=${r.buildMillis} ms")
    spark.stop()
  }
}
