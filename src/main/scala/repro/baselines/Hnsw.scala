package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.core.Distance

/** HNSW (Malkov & Yashunin [49]) — the in-memory proximity-graph baseline.
  *
  * Standard hierarchical navigable-small-world construction: each node gets
  * a geometric random level; inserts greedy-descend from the top layer and
  * connect to the M closest of an efConstruction-wide beam per layer
  * (2M on layer 0), with the simple neighbor-selection heuristic. Queries
  * greedy-descend then run an ef-wide best-first search on layer 0.
  *
  * In the paper this class of methods is fast and accurate but *memory
  * bound* (1.43 GB at SIFT1M ⇒ crashes at 100M+); `indexBytes` exposes the
  * graph + vector footprint that drives that row of Table 5.
  */
object Hnsw extends AnnMethod {
  /** Seed of the nodes' random levels. */
  private final val Seed = 7L

  final class Index(
      data: Array[Array[Float]],
      m: Int, efConstruction: Int, ef: Int) extends AnnIndex(Common.dimOf(data)) {

    override def name = "hnsw"
    private val mMax0 = 2 * m
    private val mL = 1.0 / math.log(m.toDouble)
    private val rng = new java.util.Random(Seed)

    // layers(l)(node) = neighbor list; node levels
    private val levels = new Array[Int](data.length)
    private var entryPoint = -1
    private var maxLevel = -1
    private val neighbors = scala.collection.mutable.ArrayBuffer.empty[Array[scala.collection.mutable.ArrayBuffer[Int]]]

    private def d(a: Int, b: Array[Float]): Double = Distance.l2(data(a), b)

    /** Each thread's visited marks, reused by every search it runs (the
      * build's inserts run on one thread, so they share one): node i is
      * visited in the current search iff marks(i) is its epoch.
      */
    @transient private lazy val visitedMarks = ThreadLocal.withInitial[Visited](() => new Visited(data.length))

    /** Best-first beam search on one layer from `entry`, beam width `width`.
      * Returns (dist, node) ascending, at most `width` results.
      */
    private def searchLayer(q: Array[Float], entry: Int, width: Int, layer: Int): Array[(Double, Int)] = {
      val visited = visitedMarks.get
      visited.next()
      val candidates = new java.util.PriorityQueue[(Double, Int)](11, Ordering.by[(Double, Int), Double](_._1)) // min
      val result = new java.util.PriorityQueue[(Double, Int)](11, Ordering.by[(Double, Int), Double](-_._1))    // max
      val d0 = d(entry, q)
      candidates.add((d0, entry)); result.add((d0, entry)); visited.add(entry)
      while (!candidates.isEmpty) {
        val (cd, c) = candidates.poll()
        if (cd > result.peek()._1 && result.size >= width) {
          candidates.clear()
        } else {
          val nbrs = neighbors(layer)(c)
          var i = 0
          while (i < nbrs.length) {
            val nb = nbrs(i)
            if (visited.add(nb)) {
              val nd = d(nb, q)
              if (result.size < width || nd < result.peek()._1) {
                candidates.add((nd, nb))
                result.add((nd, nb))
                if (result.size > width) result.poll()
              }
            }
            i += 1
          }
        }
      }
      val arr = new Array[(Double, Int)](result.size)
      var i = arr.length - 1
      while (i >= 0) { arr(i) = result.poll(); i -= 1 }
      arr
    }

    /** Insert all points (called once from the builder). */
    private[Hnsw] def buildAll(): Unit = {
      var i = 0
      while (i < data.length) { insert(i); i += 1 }
    }

    private def insert(node: Int): Unit = {
      val level = math.floor(-math.log(math.max(1e-12, rng.nextDouble())) * mL).toInt
      levels(node) = level
      while (neighbors.length <= level) {
        neighbors += Array.fill(data.length)(null: scala.collection.mutable.ArrayBuffer[Int])
      }
      var l = 0
      while (l <= level) {
        if (neighbors(l)(node) == null) neighbors(l)(node) = scala.collection.mutable.ArrayBuffer.empty[Int]
        l += 1
      }
      if (entryPoint < 0) { entryPoint = node; maxLevel = level; return }

      val q = data(node)
      var ep = entryPoint
      var lc = maxLevel
      while (lc > level) {
        ep = searchLayer(q, ep, 1, lc).head._2
        lc -= 1
      }
      lc = math.min(level, maxLevel)
      while (lc >= 0) {
        val w = searchLayer(q, ep, efConstruction, lc)
        val cap = if (lc == 0) mMax0 else m
        val selected = w.take(m).map(_._2)
        selected.foreach { nb =>
          neighbors(lc)(node) += nb
          neighbors(lc)(nb) += node
          if (neighbors(lc)(nb).length > cap) {
            // prune to the cap closest neighbors of nb
            val pruned = neighbors(lc)(nb)
              .map(x => (Distance.l2(data(nb), data(x)), x)).sorted.take(cap).map(_._2)
            neighbors(lc)(nb) = scala.collection.mutable.ArrayBuffer(pruned.toSeq: _*)
          }
        }
        ep = w.head._2
        lc -= 1
      }
      if (level > maxLevel) { maxLevel = level; entryPoint = node }
    }

    override protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)] = {
      if (entryPoint < 0) return Array.empty
      var ep = entryPoint
      var lc = maxLevel
      while (lc > 0) {
        ep = searchLayer(q, ep, 1, lc).head._2
        lc -= 1
      }
      searchLayer(q, ep, math.max(ef, k), 0)
        .take(k).map { case (dd, nd) => (nd.toLong, dd) }
        .sortBy { case (id, dd) => (dd, id) }
    }

    /** Vectors + adjacency (the dominant RAM costs). */
    override def indexBytes: Long = {
      val vecBytes = data.length.toLong * data.head.length * 4L
      val edgeBytes = neighbors.map(layer => layer.filter(_ != null).map(_.length.toLong * 4L).sum).sum
      vecBytes + edgeBytes
    }
  }

  /** Visited marks for n nodes: a search takes the next epoch instead of
    * clearing them (hnswlib's visited list), and clears them once when the
    * epoch would wrap.
    */
  private final class Visited(n: Int) {
    private val marks = new Array[Int](n)
    private var epoch = 0

    /** Starts a search with no node visited. */
    def next(): Unit = {
      if (epoch == Int.MaxValue) { java.util.Arrays.fill(marks, 0); epoch = 0 }
      epoch += 1
    }

    /** Marks node i visited; false if it already was. */
    def add(i: Int): Boolean = marks(i) != epoch && { marks(i) = epoch; true }
  }

  def buildIndex(localData: Array[Array[Float]], m: Int = 16, efConstruction: Int = 200,
                 ef: Int = 100): Index = {
    val idx = new Index(localData, m, efConstruction, ef)
    idx.buildAll()
    idx
  }

  override protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                                      localData: Array[Array[Float]]): AnnIndex =
    buildIndex(localData)
}
