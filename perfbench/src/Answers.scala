package perfbench

import repro.core.{Distance, HdIndexModel, Hilbert}

/** Correctness checks on answers and index state, and the exact answers
  * that MAP@k is measured against. All of it runs outside the timed loops.
  */
object Answers {

  type Answer = Array[(Long, Double)]

  /** Why `ans` is not a valid answer to `q`, or null when it is:
    *  - it holds min(k, live) results;
    *  - it is sorted ascending by (distance, id) with no duplicate ids;
    *  - each distance equals `Distance.l2` recomputed;
    *  - every id is live (inserted before, and not deleted before, the query).
    */
  def problem(ans: Answer, q: Array[Float], k: Int, liveCount: Int, live: Long => Boolean,
              vec: Long => Array[Float]): String = {
    if (ans.length != math.min(k, liveCount))
      return s"${ans.length} results, expected ${math.min(k, liveCount)}"
    val seen = scala.collection.mutable.HashSet.empty[Long]
    var i = 0
    while (i < ans.length) {
      val (id, d) = ans(i)
      if (!live(id)) return s"id $id is not live"
      if (!seen.add(id)) return s"duplicate id $id"
      if (d != Distance.l2(vec(id), q)) return s"distance of id $id is $d, recomputed ${Distance.l2(vec(id), q)}"
      if (i > 0) {
        val (pid, pd) = ans(i - 1)
        if (pd > d || (pd == d && pid > id)) return s"results out of order at rank $i"
      }
      i += 1
    }
    null
  }

  /** Exact top-k over the live objects by full scan. */
  def exact(q: Array[Float], k: Int, count: Int, live: Long => Boolean,
            vec: Long => Array[Float]): Answer =
    Distance.topK(Iterator.range(0, count).map(_.toLong).filter(live).map(id => id -> Distance.l2(vec(id), q)), k)

  /** Why the driver-side trees of `model` are inconsistent, or null: each
    * tree must hold every id exactly once, in (key, id) order.
    */
  def treeProblem(model: HdIndexModel): String = {
    val n = model.n.toInt
    model.trees.foreach { tr =>
      if (tr.ids.length != n || tr.keys.length != n) return s"tree ${tr.treeId} holds ${tr.ids.length} of $n ids"
      val seen = new java.util.BitSet(n)
      var i = 0
      while (i < n) {
        val id = tr.ids(i)
        if (id < 0 || id >= n || seen.get(id.toInt)) return s"tree ${tr.treeId}: bad or repeated id $id"
        seen.set(id.toInt)
        if (i > 0) {
          val c = Hilbert.compareKeys(tr.keys(i - 1), tr.keys(i))
          if (c > 0 || (c == 0 && tr.ids(i - 1) > id)) return s"tree ${tr.treeId} out of order at $i"
        }
        i += 1
      }
    }
    null
  }

  /** Order-sensitive SHA-256 over answers (ids and distance bits), as hex. */
  final class Digest {
    private val md  = java.security.MessageDigest.getInstance("SHA-256")
    private val buf = java.nio.ByteBuffer.allocate(16)

    def add(ans: Answer): Unit = {
      ans.foreach { case (id, d) =>
        buf.clear(); buf.putLong(id).putLong(java.lang.Double.doubleToLongBits(d))
        md.update(buf.array())
      }
      buf.clear(); buf.putLong(-1L); md.update(buf.array(), 0, 8)
    }

    def hex: String = md.digest().take(12).map(b => f"${b & 0xff}%02x").mkString
  }

  /** f(0 until n) on `threads` threads, results in index order. */
  def parallel[T: scala.reflect.ClassTag](n: Int, threads: Int)(f: Int => T): Array[T] = {
    val out   = new Array[T](n)
    val next  = new java.util.concurrent.atomic.AtomicInteger(0)
    val error = new java.util.concurrent.atomic.AtomicReference[Throwable]()
    val ts = Array.fill(threads)(new Thread(() => {
      try {
        var i = next.getAndIncrement()
        while (i < n) { out(i) = f(i); i = next.getAndIncrement() }
      } catch { case e: Throwable => error.compareAndSet(null, e); next.set(n) }
    }))
    ts.foreach(_.start()); ts.foreach(_.join())
    if (error.get != null) throw error.get
    out
  }
}
