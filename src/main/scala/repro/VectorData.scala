package repro

import org.apache.spark.sql.{Dataset, SparkSession}

/** One database object: id + feature vector. */
final case class VecRow(id: Long, vec: Array[Float])

/** Synthetic high-dimensional vector datasets standing in for the paper's
  * real corpora (Table 4) — SIFT/Audio/SUN/Yorck/Enron/Glove are proprietary
  * or impractically large downloads, so each is replaced by a deterministic
  * Gaussian-mixture generator with the same dimensionality ν, the same value
  * domain, and n scaled down ~100–1000×  (substitution documented in
  * DESIGN.md §3). Clustered data keeps nearest-neighbour structure
  * meaningful at high ν; every method sees the same generator, so relative
  * comparisons are preserved.
  *
  * Generation is a pure function of (spec, id): the same point is produced
  * on executors (Spark build jobs) and on the driver (query sets, in-memory
  * baselines, oracles).
  */
object VectorData {

  /** A synthetic dataset mirroring one Table 4 row.
    *
    * @param name          dataset tag (lower-case paper name)
    * @param dim           ν
    * @param n             number of database objects (scaled from the paper)
    * @param paperN        the paper's n, for the Table 4 bench printout
    * @param lo,hi         per-dimension value domain (Table 4 "Domain")
    * @param integerValued SIFT and Enron features are integers
    * @param nClusters     mixture components
    * @param stdFrac       cluster std as fraction of the domain width
    * @param nQueries      held-out query count
    * @param omega         Hilbert order ω for HD-Index (Table 3)
    * @param tau           number of RDB-trees τ for HD-Index
    * @param seed          base RNG seed
    */
  final case class Spec(
      name: String, dim: Int, n: Int, paperN: Long,
      lo: Double, hi: Double, integerValued: Boolean,
      nClusters: Int, stdFrac: Double, nQueries: Int,
      omega: Int, tau: Int, seed: Long) {

    private def mix(a: Long, b: Long): Long = {
      // splitmix64 finalizer — decorrelates nearby (seed, id) pairs, which
      // java.util.Random alone does not.
      var z = a + 0x9E3779B97F4A7C15L * (b + 1)
      z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
      z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
      z ^ (z >>> 31)
    }

    /** Deterministic cluster centers (uniform in the domain). */
    lazy val centers: Array[Array[Float]] = {
      Array.tabulate(nClusters) { c =>
        val rng = new java.util.Random(mix(seed, -1000L - c))
        Array.fill(dim)((lo + rng.nextDouble() * (hi - lo)).toFloat)
      }
    }

    /** The point with the given id (database ids are [0, n); query ids are
      * [n, n + nQueries)). Pure in (spec, id).
      */
    def point(id: Long): Array[Float] = {
      val rng     = new java.util.Random(mix(seed, id))
      val c       = centers(rng.nextInt(nClusters))
      val std     = (hi - lo) * stdFrac
      val v       = new Array[Float](dim)
      var i = 0
      while (i < dim) {
        var x = c(i) + rng.nextGaussian() * std
        if (x < lo) x = lo
        if (x > hi) x = hi
        if (integerValued) x = math.rint(x)
        v(i) = x.toFloat
        i += 1
      }
      v
    }

    /** Database as a distributed Dataset — the input to every index build job. */
    def data(spark: SparkSession): Dataset[VecRow] = {
      import spark.implicits._
      val self = this
      spark.range(0, n.toLong, 1, math.min(32, math.max(1, n / 2500)))
        .map(id => VecRow(id, self.point(id)))
    }

    /** Held-out queries, generated on the driver. */
    def queries: Array[VecRow] =
      Array.tabulate(nQueries)(i => VecRow(n.toLong + i, point(n.toLong + i)))

    /** Driver-local copy of the database (fits easily at our scale). */
    def localData: Array[Array[Float]] = Array.tabulate(n)(i => point(i.toLong))
  }

  // ---- registry mirroring Table 4 (scaled) -------------------------------
  // ω and η per Table 3; τ = 8 default, 16 for ν >= 500 (Sec. 5.2.4).

  val sift10k = Spec("sift10k", 128, 10000, 10000L,      0, 255, integerValued = true,
                     nClusters = 60, stdFrac = 0.20, nQueries = 100, omega = 8,  tau = 8,  seed = 11)
  val audio   = Spec("audio",   192, 10000, 54287L,     -1, 1,   integerValued = false,
                     nClusters = 60, stdFrac = 0.20, nQueries = 100, omega = 32, tau = 8,  seed = 12)
  val sun     = Spec("sun",     512, 8000,  80006L,      0, 1,   integerValued = false,
                     nClusters = 50, stdFrac = 0.20, nQueries = 50,  omega = 32, tau = 16, seed = 13)
  val sift1m  = Spec("sift1m",  128, 40000, 1000000L,    0, 255, integerValued = true,
                     nClusters = 120, stdFrac = 0.20, nQueries = 100, omega = 8, tau = 8,  seed = 14)
  val yorck   = Spec("yorck",   128, 20000, 15120935L,  -1, 1,   integerValued = false,
                     nClusters = 80, stdFrac = 0.20, nQueries = 60,  omega = 32, tau = 8,  seed = 15)
  val enron   = Spec("enron",   1369, 5000, 93986L,      0, 252429, integerValued = true,
                     nClusters = 40, stdFrac = 0.12, nQueries = 40,  omega = 16, tau = 16, seed = 16)
  val glove   = Spec("glove",   100, 20000, 1183514L,  -10, 10,  integerValued = false,
                     nClusters = 80, stdFrac = 0.20, nQueries = 100, omega = 32, tau = 8,  seed = 17)

  /** Tiny spec for unit tests (fast to build everywhere). */
  val tiny    = Spec("tiny",    32,  2000,  2000L,       0, 1,   integerValued = false,
                     nClusters = 20, stdFrac = 0.05, nQueries = 20,  omega = 8,  tau = 4,  seed = 99)

  val all: Seq[Spec] = Seq(sift10k, audio, sun, sift1m, yorck, enron, glove)

  def byName(name: String): Spec =
    (all :+ tiny).find(_.name == name).getOrElse(sys.error(s"unknown dataset $name"))
}
