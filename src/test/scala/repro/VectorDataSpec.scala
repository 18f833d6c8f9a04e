package repro

import org.apache.spark.sql.functions._

class VectorDataSpec extends SparkSpec {

  test("point generation is deterministic in (spec, id)") {
    val s = VectorData.tiny
    assert(s.point(42L).toSeq == s.point(42L).toSeq)
    assert(s.point(0L).toSeq != s.point(1L).toSeq)
  }

  test("executor-side and driver-side generation agree") {
    val s = VectorData.tiny
    val fromSpark = s.data(spark).filter(_.id < 10).collect().sortBy(_.id)
    val local = (0L until 10L).map(s.point)
    fromSpark.zip(local).foreach { case (r, l) => assert(r.vec.toSeq == l.toSeq) }
  }

  test("dataset has exactly n rows with unique ids") {
    val s = VectorData.tiny
    val df = s.data(spark)
    assert(df.count() == s.n)
    assert(df.select("id").distinct().count() == s.n)
  }

  test("all values lie in the declared domain") {
    val s = VectorData.tiny
    for (id <- 0L until 200L; x <- s.point(id)) {
      assert(x >= s.lo && x <= s.hi, s"value $x outside [${s.lo}, ${s.hi}]")
    }
  }

  test("integer-valued specs produce integral features") {
    val s = VectorData.sift10k
    for (id <- 0L until 50L; x <- s.point(id)) assert(x == math.rint(x))
  }

  test("queries are held out of the database id range") {
    val s = VectorData.tiny
    val qs = s.queries
    assert(qs.length == s.nQueries)
    assert(qs.forall(_.id >= s.n))
    assert(qs.map(_.id).distinct.length == qs.length)
  }

  test("localData matches the distributed data") {
    val s = VectorData.tiny
    val local = s.localData
    assert(local.length == s.n)
    val sample = s.data(spark).filter(col("id").isin(0L, 777L, (s.n - 1).toLong)).collect()
    sample.foreach(r => assert(r.vec.toSeq == local(r.id.toInt).toSeq))
  }

  test("eta is ceil(dim/tau) for every registry entry (Table 3 column)") {
    def eta(spec: VectorData.Spec): Int = repro.core.RdbTree.sliceWidth(spec.dim, spec.tau)
    assert(eta(VectorData.sift10k) == 16)
    assert(eta(VectorData.yorck) == 16)
    assert(eta(VectorData.audio) == 24)
    assert(eta(VectorData.enron) == 86)
    assert(eta(VectorData.glove) == 13)
    assert(eta(VectorData.sun) == 32) // tau=16 (the Sec. 5.2.4 recommendation for 500+ dims)
  }

  test("registry dims and domains match Table 4") {
    assert(VectorData.sift10k.dim == 128 && VectorData.sift10k.lo == 0 && VectorData.sift10k.hi == 255)
    assert(VectorData.audio.dim == 192 && VectorData.audio.lo == -1 && VectorData.audio.hi == 1)
    assert(VectorData.sun.dim == 512)
    assert(VectorData.enron.dim == 1369)
    assert(VectorData.glove.dim == 100 && VectorData.glove.lo == -10)
    assert(VectorData.yorck.dim == 128)
  }

  test("clusteredness: nearest neighbor is much closer than a random point") {
    val s = VectorData.tiny
    val local = s.localData
    val rng = new scala.util.Random(1)
    var nnSum = 0.0; var rndSum = 0.0
    for (_ <- 1 to 20) {
      val i = rng.nextInt(s.n)
      val nn = local.indices.filter(_ != i).map(j => core.Distance.l2(local(i), local(j))).min
      val rd = core.Distance.l2(local(i), local(rng.nextInt(s.n)))
      nnSum += nn; rndSum += rd
    }
    assert(nnSum < rndSum, "generator should produce clustered (non-uniform) data")
  }

  test("byName resolves every registry entry and rejects unknowns") {
    (VectorData.all :+ VectorData.tiny).foreach(s => assert(VectorData.byName(s.name) eq s))
    assertThrows[RuntimeException](VectorData.byName("nope"))
  }
}
