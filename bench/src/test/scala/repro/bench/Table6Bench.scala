package repro.bench

import repro.SparkSpec
import repro.baselines.LinearScan
import repro.imagesearch.ImageSearch

/** Table 6 / Sec. 5.5: image retrieval by Borda-count aggregation of
  * per-descriptor kANN results, scored with image-level MAP@5.
  *
  * Paper (Yorck SURF corpus): HD-Index and QALSH MAP@5 ≈ 0.6 (best),
  * SRS ≈ 0.19, C2LSH = 0. Linear scan is the ground truth. We reproduce the
  * ordering: HD-Index ≈ QALSH > SRS-class methods, with C2LSH clearly worst.
  */
class Table6Bench extends SparkSpec {

  test("Table 6: Borda-count image search MAP@5 per method") {
    val corpus = ImageSearch.corpus()
    val truthIdx = LinearScan.build(spark, corpus.spec,
      ImageSearch.descriptorDs(spark, corpus), corpus.descriptors)
    val results = ImageSearch.run(spark, corpus, truthIdx)

    println("== Table 6 / Sec 5.5: image-level MAP@5 (Borda count over kANN) ==")
    println(f"${"method"}%-12s ${"MAP@5"}%8s ${"ms/descriptor"}%14s")
    results.foreach { case (m, map5, ms) => println(f"$m%-12s $map5%8.3f $ms%14.3f") }

    val byName = results.map(r => r._1 -> r._2).toMap
    assert(byName("hdindex") > 0.5, s"hdindex image MAP=${byName("hdindex")}")
    assert(byName("hdindex") >= byName("c2lsh"),
           "paper: C2LSH image quality collapses vs HD-Index")
    assert(byName("hdindex") >= byName("srs") - 0.05,
           "paper: HD-Index image MAP well above SRS")
    assert(math.abs(byName("hdindex") - byName("qalsh")) < 0.4,
           "paper: HD-Index and QALSH are the two quality leaders")
  }

  test("ground-truth sanity: linear scan ranks the distorted source image first") {
    val corpus = ImageSearch.corpus()
    val truthIdx = LinearScan.build(spark, corpus.spec,
      ImageSearch.descriptorDs(spark, corpus), corpus.descriptors)
    val truthRanking = ImageSearch.imageRankings(corpus, truthIdx)
    val firstHits = corpus.sourceImage.indices.count { qi =>
      truthRanking(qi).headOption.contains(corpus.sourceImage(qi))
    }
    assert(firstHits >= corpus.sourceImage.length * 8 / 10,
           s"source image top-ranked only $firstHits/${corpus.sourceImage.length} times")
  }
}
