package repro

import org.apache.spark.sql.SparkSession
import repro.core._

/** Expensive shared fixtures, built once per test JVM (Test/fork with
  * parallelExecution=false gives one JVM per run).
  */
object TestFixtures {
  def spark: SparkSession = SparkSpec.shared

  lazy val tiny: VectorData.Spec = VectorData.tiny
  lazy val tinyLocal: Array[Array[Float]] = tiny.localData
  lazy val tinyModel: HdIndexModel =
    HdIndex.build(spark, tiny.data(spark), tinyLocal, HdIndex.configFor(tiny))
  /** The same trees with no references (m = 0): Multicurves' index. */
  lazy val tinyCurves: HdIndexModel =
    HdIndex.build(spark, tiny.data(spark), tinyLocal, HdIndex.configFor(tiny).copy(m = 0))
  lazy val tinyQueries: Array[VecRow] = tiny.queries
  lazy val tinyTruth: Array[Array[(Long, Double)]] =
    repro.baselines.LinearScan.groundTruth(spark, tiny.data(spark), tinyQueries, 100)

  def getVec(id: Long): Array[Float] = tinyLocal(id.toInt)

  /** SHA-256 over `search`'s answers to every tiny query at each k in `ks`:
    * per answer list, its length, then every (id, distance bits) in order.
    */
  def answerDigest(ks: Seq[Int])(search: (Array[Float], Int) => Array[(Long, Double)]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(16)
    for (k <- ks; qr <- tinyQueries) {
      val ans = search(qr.vec, k)
      md.update(buf.clear().putLong(ans.length.toLong).array(), 0, 8)
      ans.foreach { case (id, d) =>
        md.update(buf.clear().putLong(id).putLong(java.lang.Double.doubleToLongBits(d)).array())
      }
    }
    md.digest().map(b => f"$b%02x").mkString
  }
}
