package repro

import repro.core._
import repro.baselines._
import repro.harness.Harness

/** End-to-end comparison on the tiny clustered dataset: the paper's
  * qualitative ordering (Table 5 / Fig. 10) should already show up at this
  * scale — exact methods perfect, HD-Index and HNSW near the top, LSH
  * methods in the middle, OPQ(M=2) at the bottom.
  */
class IntegrationSpec extends SparkSpec {

  lazy val spec    = TestFixtures.tiny
  lazy val local   = TestFixtures.tinyLocal
  lazy val queries = TestFixtures.tinyQueries
  lazy val truth   = TestFixtures.tinyTruth

  lazy val hd = new HdAnnIndex(TestFixtures.tinyModel,
                               QueryParams.recommended(100, 512), local)

  private def map10(idx: AnnIndex): Double =
    Metrics.mapAtK(queries.indices.map { qi =>
      (truth(qi).map(_._1).toSeq, idx.search(queries(qi).vec, 10).map(_._1).toSeq)
    }, 10)

  private def ratio10(idx: AnnIndex): Double = {
    queries.indices.map { qi =>
      val ans = idx.search(queries(qi).vec, 10)
      Metrics.approximationRatio(ans.map(_._2).toSeq, truth(qi).take(10).map(_._2).toSeq)
    }.sum / queries.length
  }

  lazy val mapHd   = map10(hd)
  lazy val mapSrs  = map10(Srs.build(spark, spec, spec.data(spark), local))
  lazy val mapC2   = map10(C2Lsh.build(spark, spec, spec.data(spark), local))
  lazy val mapOpq  = map10(Pq.build(spark, spec, spec.data(spark), local))
  lazy val mapHnsw = map10(Hnsw.build(spark, spec, spec.data(spark), local))

  test("HD-Index MAP@10 is high on clustered data") {
    assert(mapHd > 0.75, s"MAP = $mapHd")
  }

  test("HD-Index beats SRS on MAP (Table 5 column)") {
    assert(mapHd > mapSrs, s"hd=$mapHd srs=$mapSrs")
  }

  test("HD-Index beats C2LSH on MAP (Table 5 column)") {
    assert(mapHd > mapC2, s"hd=$mapHd c2lsh=$mapC2")
  }

  test("HD-Index beats OPQ on MAP by a wide margin (Table 5 column)") {
    assert(mapHd > mapOpq + 0.2, s"hd=$mapHd opq=$mapOpq")
  }

  test("HNSW quality is comparable to HD-Index (both 'Q' class in Fig. 10)") {
    assert(math.abs(mapHnsw - mapHd) < 0.3, s"hd=$mapHd hnsw=$mapHnsw")
  }

  test("approximation ratio is near 1 even when MAP differs (Sec. 5.3 motivation)") {
    val rHd = ratio10(hd)
    assert(rHd >= 1.0 - 1e-9 && rHd < 1.5, s"ratio = $rHd")
  }

  test("HD-Index answers through the AnnIndex adapter equal direct searchLocal") {
    val p = QueryParams.recommended(10, 512)
    for (qi <- 0 until 5) {
      val direct = HdQuery.searchLocal(TestFixtures.tinyModel, queries(qi).vec, p, TestFixtures.getVec)._1
      val viaAdapter = hd.search(queries(qi).vec, 10)
      assert(viaAdapter.toSeq == direct.toSeq)
    }
  }

  test("HD-Index index is smaller than Multicurves' but larger than SRS' (Fig. 9 shape)") {
    val mc  = Multicurves.build(spark, spec, spec.data(spark), local)
    val srs = Srs.build(spark, spec, spec.data(spark), local)
    assert(hd.indexBytes < mc.indexBytes)
    assert(hd.indexBytes > srs.indexBytes)
  }

  test("HdIndexMethod builds through the uniform AnnMethod interface") {
    val idx = new HdIndexMethod(alphaOverride = 256).build(spark, spec, spec.data(spark), local)
    assert(idx.name == "hdindex")
    assert(idx.search(queries(0).vec, 10).length == 10)
  }

  test("every method rejects a NaN, Inf, short or long object, naming it") {
    val (id, c) = (37, spec.dim / 2)
    def with1(v: Array[Float]): Array[Array[Float]] = local.updated(id, v)
    val bad = Seq(
      ("NaN", with1(local(id).updated(c, Float.NaN)), s"object $id coordinate $c is NaN"),
      ("+Inf", with1(local(id).updated(c, Float.PositiveInfinity)), s"object $id coordinate $c is Infinity"),
      ("-Inf", with1(local(id).updated(c, Float.NegativeInfinity)), s"object $id coordinate $c is -Infinity"),
      ("short", with1(local(id).init), s"object $id has ${spec.dim - 1} dimensions"),
      ("long", with1(local(id) :+ 0f), s"object $id has ${spec.dim + 1} dimensions"))
    Harness.methods.foreach { m =>
      for ((what, objects, message) <- bad) withClue(s"${m.getClass.getSimpleName}, $what: ") {
        val e = intercept[IllegalArgumentException](m.build(spark, spec, spec.data(spark), objects))
        assert(e.getMessage.contains(message), e.getMessage)
      }
    }
  }

  test("every method rejects a NaN, Inf, short or long query and k = 0") {
    val q = queries(0).vec
    def with1(x: Float): Array[Float] = { val v = q.clone(); v(spec.dim / 2) = x; v }
    val bad = Seq(("NaN", with1(Float.NaN), 10), ("+Inf", with1(Float.PositiveInfinity), 10),
                  ("-Inf", with1(Float.NegativeInfinity), 10),
                  ("short", q.init, 10), ("long", q :+ 0f, 10), ("k = 0", q, 0))
    Harness.methods.foreach { m =>
      val idx = m.build(spark, spec, spec.data(spark), local)
      for ((what, v, k) <- bad)
        withClue(s"${idx.name}, $what: ")(intercept[IllegalArgumentException](idx.search(v, k)))
    }
  }
}
