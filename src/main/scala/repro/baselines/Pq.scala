package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}

/** Product quantization (PQ [36]) and Optimized PQ (OPQ [28]).
  *
  * The feature space is split into M disjoint subspaces (the paper's OPQ
  * configuration uses M = 2); each subspace gets a k-means codebook and
  * every object is stored as M code bytes. Queries use asymmetric distance
  * computation (ADC): per-subspace lookup tables of exact query-to-centroid
  * distances, summed over codes — the paper's "extremely poor quality" row
  * comes precisely from how coarse M = 2 codes are.
  *
  * OPQ applies a learned orthogonal rotation before quantizing; we use the
  * parametric variant's PCA rotation (breeze `eigSym` on the covariance),
  * which is the standard initialization of the authors' solver — quality
  * behaviour at M = 2 is indistinguishable from the full alternation.
  */
object Pq extends AnnMethod {
  /** Subspaces M (the paper's OPQ configuration). */
  private final val MSub = 2
  /** Objects sampled to train the codebooks. */
  private final val TrainSample = 4000
  /** Centroids K per subspace codebook: one code byte each. */
  private final val KCentroids = 256
  /** The largest ν that gets OPQ's PCA rotation; above it (enron's
    * ν = 1369) the index is plain PQ.
    */
  private final val MaxPcaDim = 600
  private final val Seed = 7L

  final class Index(
      dim: Int,
      rotation: Option[Array[Array[Float]]], // None for plain PQ
      codebooks: Array[Array[Array[Float]]], // M × K × subDim
      codes: Array[Array[Byte]],      // n × M
      override val name: String) extends AnnIndex(dim) {

    private val mSub = codebooks.length
    private val subDims: Array[(Int, Int)] = Pq.subRanges(dim, mSub)

    override protected def searchChecked(q: Array[Float], k: Int): Array[(Long, Double)] = {
      val rq = rotation.map(r => Pq.rotate(r, q)).getOrElse(q)
      // ADC tables: exact distance from the query sub-vector to each centroid
      val tables = Array.tabulate(mSub) { s =>
        val (from, until) = subDims(s)
        codebooks(s).map { c =>
          var d = 0.0
          var i = from
          while (i < until) { val x = rq(i) - c(i - from); d += x * x; i += 1 }
          d
        }
      }
      val scored = codes.indices.iterator.map { i =>
        var d = 0.0
        var s = 0
        while (s < mSub) { d += tables(s)(codes(i)(s) & 0xff); s += 1 }
        i.toLong -> math.sqrt(d)
      }
      repro.core.Distance.topK(scored, k)
    }

    override def indexBytes: Long =
      codes.length.toLong * mSub +
        codebooks.map(cb => cb.length.toLong * cb.head.length * 4L).sum
  }

  private[baselines] def subRanges(dim: Int, m: Int): Array[(Int, Int)] = {
    val w = (dim + m - 1) / m
    (0 until m).toArray.map(s => (s * w, math.min(dim, (s + 1) * w))).filter(p => p._2 > p._1)
  }

  private[baselines] def rotate(r: Array[Array[Float]], v: Array[Float]): Array[Float] = {
    val out = new Array[Float](r.length)
    var i = 0
    while (i < r.length) {
      var s = 0.0
      var j = 0
      while (j < v.length) { s += r(i)(j).toDouble * v(j); j += 1 }
      out(i) = s.toFloat
      i += 1
    }
    out
  }

  /** PCA rotation from the covariance matrix, summed in id order so that
    * the rotation's bits do not depend on how the data is partitioned.
    */
  private def pcaRotation(localData: Array[Array[Float]], dim: Int): Array[Array[Float]] = {
    import breeze.linalg.{DenseMatrix, eigSym}
    val sumV     = new Array[Double](dim)
    val sumOuter = Array.ofDim[Double](dim, dim)
    localData.foreach { v =>
      var i = 0
      while (i < dim) {
        sumV(i) += v(i)
        var j = i
        while (j < dim) { sumOuter(i)(j) += v(i).toDouble * v(j); j += 1 }
        i += 1
      }
    }
    val n = localData.length.toDouble
    val cov = DenseMatrix.tabulate(dim, dim) { (i, j) =>
      val (a, b) = if (i <= j) (i, j) else (j, i)
      sumOuter(a)(b) / n - (sumV(i) / n) * (sumV(j) / n)
    }
    val es = eigSym(cov)
    // rows = eigenvectors, descending eigenvalue
    val order = es.eigenvalues.toArray.zipWithIndex.sortBy(-_._1).map(_._2)
    order.map(c => Array.tabulate(dim)(r => es.eigenvectors(r, c).toFloat))
  }

  /** OPQ for ν ≤ 600, else plain PQ. */
  def buildIndex(spark: SparkSession, data: Dataset[VecRow], localData: Array[Array[Float]]): Index = {
    val dim = localData.head.length
    val rotation = if (dim <= MaxPcaDim) Some(pcaRotation(localData, dim)) else None
    // only the training sample is rotated on the driver
    val rng = new scala.util.Random(Seed)
    val sample = Array.fill(math.min(TrainSample, localData.length)) {
      val v = localData(rng.nextInt(localData.length))
      rotation.map(r => rotate(r, v)).getOrElse(v)
    }
    val ranges = subRanges(dim, MSub)
    val codebooks = ranges.map { case (from, until) =>
      Common.kmeans(sample.map(_.slice(from, until)), KCentroids, iters = 6, seed = Seed)
    }
    // Distributed encoding: nearest centroid per subspace for every object.
    val bCb = spark.sparkContext.broadcast(codebooks)
    val bRot = spark.sparkContext.broadcast(rotation)
    val bRanges = spark.sparkContext.broadcast(ranges)
    val codes = Common.collectById(data, localData) { r =>
      val v = bRot.value.map(rot => rotate(rot, r.vec)).getOrElse(r.vec)
      bRanges.value.zipWithIndex.map { case ((from, until), s) =>
        Common.nearestCentroid(v.slice(from, until), bCb.value(s)).toByte
      }
    }
    new Index(dim, rotation, codebooks, codes, if (rotation.isDefined) "opq" else "pq")
  }

  override protected def buildChecked(spark: SparkSession, spec: VectorData.Spec, data: Dataset[VecRow],
                                      localData: Array[Array[Float]]): AnnIndex =
    buildIndex(spark, data, localData)
}
