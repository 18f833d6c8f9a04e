package repro.imagesearch

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.baselines.{AnnIndex, AnnMethod, C2Lsh, Multicurves, Qalsh, Srs}
import repro.core.{HdIndexMethod, Metrics}
import repro.harness.Harness

/** The image-retrieval experiment of Sec. 5.5 (Table 6): multi-descriptor
  * kANN + Borda-count aggregation, evaluated with image-level MAP@5.
  *
  * The Yorck SURF corpus is replaced by a synthetic equivalent: every
  * database image is a cluster of 40 descriptors around its own
  * center; a query image is a *distorted copy* of a database image (its
  * descriptors re-drawn with extra noise), so the linear-scan ground truth
  * ranks the source image first and structurally similar images next —
  * exactly the retrieval task the paper's experiment exercises.
  */
object ImageSearch {

  private final val NImages      = 150
  private final val DescPerImage = 40
  private final val Dim          = 64
  private final val NQueryImages = 20
  /** Neighbours retrieved per query descriptor. */
  private final val K            = 100
  /** Images ranked per query image, and scored by MAP@5. */
  private final val TopImages    = 5
  private final val Seed         = 31L

  /** The methods of Table 6, HD-Index first. */
  val methods: Seq[AnnMethod] = Seq(
    new HdIndexMethod(alphaOverride = 512), Srs, C2Lsh, Qalsh, Multicurves)

  final case class Corpus(spec: VectorData.Spec,
                          descriptors: Array[Array[Float]],
                          queryImages: Array[Array[Array[Float]]],
                          sourceImage: Array[Int]) {
    def imageOf(descId: Long): Int = (descId / DescPerImage).toInt
  }

  /** Deterministic synthetic corpus. Descriptor id = img·descPerImage + j. */
  def corpus(): Corpus = {
    val rng = new java.util.Random(Seed)
    val centers = Array.fill(NImages)(Array.fill(Dim)(rng.nextGaussian().toFloat))
    def descriptor(img: Int): Array[Float] =
      centers(img).map(c => (c + rng.nextGaussian() * 0.3).toFloat)
    val descriptors = Array.tabulate(NImages * DescPerImage)(i => descriptor(i / DescPerImage))
    val sourceImage = Array.tabulate(NQueryImages)(q => (q * 7) % NImages)
    val queryImages = sourceImage.map { img =>
      Array.tabulate(DescPerImage) { j =>
        descriptors(img * DescPerImage + j).map(x => (x + rng.nextGaussian() * 0.1).toFloat)
      }
    }
    // a spec describing the descriptor "dataset" for AnnMethod.build
    val spec = VectorData.Spec("imagedesc", Dim, descriptors.length, descriptors.length,
      -8, 8, integerValued = false, nClusters = NImages, stdFrac = 0.05,
      nQueries = 1, omega = 16, tau = 8, seed = Seed)
    Corpus(spec, descriptors, queryImages, sourceImage)
  }

  def descriptorDs(spark: SparkSession, c: Corpus): Dataset[VecRow] = {
    import spark.implicits._
    spark.createDataset(c.descriptors.toSeq.zipWithIndex.map { case (v, i) => VecRow(i.toLong, v) })
  }

  /** Image-level top-5 lists for every query image under one built index. */
  def imageRankings(c: Corpus, idx: AnnIndex): Array[Seq[Int]] =
    c.queryImages.map { qDescs =>
      val lists = qDescs.toSeq.map(q => idx.search(q, K).map(_._1).toSeq)
      Borda.topImages(lists, c.imageOf, K, TopImages)
    }

  /** MAP@5 of a method's image rankings against the ground-truth rankings. */
  def imageMap(truth: Array[Seq[Int]], got: Array[Seq[Int]]): Double =
    Metrics.mapAtK(truth.indices.map(i =>
      (truth(i).map(_.toLong), got(i).map(_.toLong))), TopImages)

  /** Run the whole experiment for [[methods]]; returns (method name, image
    * MAP@5, per-descriptor query ms). The time is the median of
    * [[Harness.timePasses]] after one untimed pass, whose rankings are
    * scored.
    */
  def run(spark: SparkSession, c: Corpus, truthIndex: AnnIndex): Seq[(String, Double, Double)] = {
    val truth = imageRankings(c, truthIndex)
    methods.map { m =>
      val idx = m.build(spark, c.spec, descriptorDs(spark, c), c.descriptors)
      val got = imageRankings(c, idx)
      val (passMs, _) = Harness.timePasses(imageRankings(c, idx))
      (idx.name, imageMap(truth, got), passMs / (c.queryImages.length.toLong * DescPerImage))
    }
  }
}
