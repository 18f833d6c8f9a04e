package perfbench

import repro.core._

/** Per-layer time and work of one query, filled by [[Replay.search]]. */
final class LayerTotals {
  var refdistNs, encodeNs, windowNs, triNs, ptoNs, rerankNs = 0L
  var windowEntries, windowKeyBytes, triEvals, ptoEvals, survivors, kappa = 0L

  def spanNs: Long = refdistNs + encodeNs + windowNs + triNs + ptoNs + rerankNs

  def add(o: LayerTotals): Unit = {
    refdistNs += o.refdistNs; encodeNs += o.encodeNs; windowNs += o.windowNs
    triNs += o.triNs; ptoNs += o.ptoNs; rerankNs += o.rerankNs
    windowEntries += o.windowEntries; windowKeyBytes += o.windowKeyBytes; triEvals += o.triEvals; ptoEvals += o.ptoEvals
    survivors += o.survivors; kappa += o.kappa
  }
}

/** Algo. 2 replayed from outside the program: the same steps as
  * `HdQuery.searchLocal`, composed from the public calls of each layer so
  * that each call can be timed. The private steps of `searchLocal` (the
  * bound sort, the candidate union, the window copy) are redone here
  * untimed; they make up `HdQuery.residual_us`.
  */
object Replay {

  /** Pack a non-negative bound with its position so a primitive sort orders
    * by (bound as float, position), as `searchLocal` does.
    */
  private def packed(bounds: Array[Double], n: Int): Array[Long] = {
    val out = new Array[Long](n)
    var i = 0
    while (i < n) {
      out(i) = (java.lang.Float.floatToIntBits(bounds(i).toFloat).toLong << 32) | i.toLong
      i += 1
    }
    java.util.Arrays.sort(out)
    out
  }

  def search(model: HdIndexModel, q: Array[Float], p: QueryParams,
             getVec: Long => Array[Float], acc: LayerTotals): Array[(Long, Double)] = {
    val cfg = model.cfg
    var t0 = System.nanoTime()
    val dq = model.refs.map(r => Distance.l2(q, r))
    var t1 = System.nanoTime()
    acc.refdistNs += t1 - t0

    val cands = scala.collection.mutable.Set.empty[Long]
    var t = 0
    while (t < model.trees.length) {
      val tree = model.trees(t)
      t0 = System.nanoTime()
      val qkey = Hilbert(tree.width, cfg.omega).encodeVector(q, tree.fromDim, cfg.lo, cfg.hi)
      t1 = System.nanoTime()
      val (s, e) = HdQuery.selectWindow(tree.keys, qkey, p.alpha)
      val t2 = System.nanoTime()
      acc.encodeNs += t1 - t0
      acc.windowNs += t2 - t1

      val w = e - s
      val bounds = new Array[Double](w)
      t0 = System.nanoTime()
      var i = 0
      while (i < w) {
        bounds(i) = HdQuery.triBound(dq, model.refdistsById(tree.ids(s + i).toInt))
        i += 1
      }
      acc.triNs += System.nanoTime() - t0
      acc.windowEntries += w
      acc.windowKeyBytes += w.toLong * qkey.length
      acc.triEvals += w
      val byTri = packed(bounds, w)

      val kept: Array[Long] =
        if (!p.usePtolemaic) byTri.take(math.min(w, p.gamma)).map(pk => tree.ids(s + pk.toInt))
        else {
          val beta = byTri.take(math.min(w, p.beta)).map(_.toInt)
          val pto = new Array[Double](beta.length)
          t0 = System.nanoTime()
          var j = 0
          while (j < beta.length) {
            pto(j) = HdQuery.ptolemaicBound(dq, model.refdistsById(tree.ids(s + beta(j)).toInt),
                                            model.refMatrix)
            j += 1
          }
          acc.ptoNs += System.nanoTime() - t0
          acc.ptoEvals += beta.length
          packed(pto, beta.length).take(math.min(beta.length, p.gamma))
            .map(pk => tree.ids(s + beta(pk.toInt)))
        }
      acc.survivors += kept.length
      cands ++= kept
      t += 1
    }
    cands --= model.deleted
    acc.kappa += cands.size

    t0 = System.nanoTime()
    val ans = Distance.topK(cands.iterator.map(id => id -> Distance.l2(getVec(id), q)), p.k)
    acc.rerankNs += System.nanoTime() - t0
    ans
  }
}
