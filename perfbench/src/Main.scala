package perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession
import repro.core._

/** HD-Index benchmark: builds the index through its public API, drives one
  * workload as a closed loop, checks every answer and prints the metrics.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --state DIR
  *
  * `DIR` receives Spark's scratch files, the per-query trace and what a run
  * records for later runs of the same build to repeat exactly.
  *
  * With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
  * replays every query through [[Replay]] and reports per-layer metrics. The
  * last line of standard output is one JSON object.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, state: String)

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(key, v) if key.startsWith("--") => key.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def get(key: String) = kv.getOrElse(key, throw new IllegalArgumentException(s"missing --$key"))
    val a = Args(get("workload"), get("seed").toLong, get("seconds").toInt,
                 get("trace") match {
                   case "0" => false
                   case "1" => true
                   case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
                 },
                 get("state"))
    require(a.seconds >= 1, "--seconds must be >= 1")
    a
  }

  def main(argv: Array[String]): Unit = {
    // exit explicitly: a thread Spark leaves behind must not keep the JVM up
    val code =
      try { run(parseArgs(argv)); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  private def run(args: Args): Unit = {
    val w = Workload.byName(args.workload)
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.local.dir", s"${args.state}/spark-local")
      .config("spark.sql.warehouse.dir", s"${args.state}/spark-warehouse")
      .getOrCreate()
    val report =
      try new Bench(spark, w, args).run()
      finally spark.stop()
    report.print()
  }
}

/** Metric values in the order they were added, plus the run's counts.
  * Metrics added with [[apply]] go into the JSON result line; those added
  * with [[info]] are printed above it only.
  */
final class Report {
  val metrics = scala.collection.mutable.LinkedHashMap.empty[String, (Double, String)]
  val printed = scala.collection.mutable.LinkedHashMap.empty[String, (Double, String)]
  val notes   = ArrayBuffer.empty[String]
  var attempted, failed = 0L

  def apply(name: String, unit: String, value: Double): Unit = metrics(name) = (value, unit)

  def info(name: String, unit: String, value: Double): Unit = printed(name) = (value, unit)

  def print(): Unit = {
    info("error_rate", "ratio", failed.toDouble / math.max(1L, attempted))
    notes.foreach(n => println(s"# $n"))
    (metrics ++ printed).foreach { case (name, (v, unit)) => println(f"$name%-32s $v%14.4f $unit") }
    def num(v: Double) = if (v.isNaN || v.isInfinite) "null" else v.toString
    val body = metrics.map { case (name, (v, unit)) =>
      s""""$name": {"value": ${num(v)}, "unit": "$unit"}"""
    }.mkString(", ")
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Nearest-rank quantile. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.length).toInt - 1))
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.length
}
