package perfbench

import repro.VectorData
import repro.core.QueryParams

/** One benchmark workload: a Table 5 dataset, the Table 5 query setting
  * (k = 100, HdIndexMethod's α rule, `QueryParams.recommended`), and
  * whether a seeded mix of inserts and deletes runs beside the queries.
  */
final case class Workload(name: String, base: VectorData.Spec,
                          ptolemaic: Boolean, churn: Boolean) {

  def spec(seed: Long): VectorData.Spec = base.copy(seed = seed, nQueries = Workload.Queries)

  /** HdIndexMethod's α rule: n/10 clamped to [256, 4096]. */
  def alpha: Int = math.max(256, math.min(4096, base.n / 10))

  def params: QueryParams = QueryParams.recommended(Workload.K, alpha, ptolemaic)
}

object Workload {
  val K = 100
  /** Held-out queries per workload; the clients cycle through them. */
  val Queries = 200

  val all: Seq[Workload] = Seq(
    Workload("sun-tri", VectorData.sun, ptolemaic = false, churn = false),
    Workload("sift10k-churn", VectorData.sift10k, ptolemaic = true, churn = true))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))
}

/** One operation of a closed-loop client. */
sealed trait Op
final case class QueryOp(qi: Int) extends Op
/** Insert the vector `spec.point(src)` under the next dense id. */
final case class InsertOp(src: Long) extends Op
final case class DeleteOp(id: Long) extends Op

object Ops {

  /** The churn stream: blocks of 10 operations, each 8 queries, 1 insert
    * and 1 mark-delete in a seeded order. Queries pick a random held-out
    * query; inserted vectors come from ids past the query ids, so they share
    * the data's mixture but never equal a query point; deletes pick a random
    * object that is live at that point of the stream. Pure in (spec, blocks).
    */
  def churn(spec: VectorData.Spec, blocks: Int): Array[Op] = {
    val rng  = new java.util.Random(spec.seed * 31 + 5)
    val live = scala.collection.mutable.ArrayBuffer.tabulate(spec.n)(_.toLong)
    var next = spec.n.toLong
    var src  = spec.n.toLong + spec.nQueries
    val ops  = Array.newBuilder[Op]
    for (_ <- 0 until blocks) {
      val kinds = Array.fill(8)(0) ++ Array(1, 2)
      var i = kinds.length - 1
      while (i > 0) {
        val j = rng.nextInt(i + 1)
        val t = kinds(i); kinds(i) = kinds(j); kinds(j) = t
        i -= 1
      }
      kinds.foreach {
        case 0 => ops += QueryOp(rng.nextInt(spec.nQueries))
        case 1 =>
          ops += InsertOp(src); live += next; next += 1; src += 1
        case _ =>
          val j = rng.nextInt(live.length)
          ops += DeleteOp(live(j))
          live(j) = live.last; live.remove(live.length - 1)
      }
    }
    ops.result()
  }
}
