package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Distance

class HnswSpec extends AnyFunSuite {

  private def ring(n: Int): Array[Array[Float]] =
    Array.tabulate(n) { i =>
      val a = 2 * math.Pi * i / n
      Array(math.cos(a).toFloat, math.sin(a).toFloat)
    }

  test("exact on a tiny set (graph covers everything)") {
    val data = ring(50)
    val idx = Hnsw.buildIndex(data, m = 8, efConstruction = 50, ef = 50)
    for (i <- 0 until 50 by 7) {
      val got = idx.search(data(i), 5).map(_._1)
      val brute = data.indices.map(j => (j.toLong, Distance.l2(data(i), data(j))))
        .sortBy { case (id, d) => (d, id) }.take(5).map(_._1)
      assert(got.toSeq == brute.toSeq)
    }
  }

  test("search on an empty index returns empty") {
    val idx = new Hnsw.Index(Array.empty, 8, 50, 50)
    assert(idx.search(Array(0f, 0f), 3).isEmpty)
  }

  test("single-point index returns that point") {
    val idx = Hnsw.buildIndex(Array(Array(1f, 2f)))
    assert(idx.search(Array(0f, 0f), 3).toSeq == Seq((0L, Distance.l2(Array(1f, 2f), Array(0f, 0f)))))
  }

  test("high recall on clustered data (100 clusters of 20)") {
    val rng = new scala.util.Random(3)
    val centers = Array.fill(100)(Array.fill(16)(rng.nextFloat() * 10))
    val data = Array.tabulate(2000) { i =>
      val c = centers(i % 100)
      c.map(x => x + rng.nextGaussian().toFloat * 0.1f)
    }
    val idx = Hnsw.buildIndex(data)
    var hits = 0; var total = 0
    for (_ <- 1 to 20) {
      val q = data(rng.nextInt(2000)).map(x => x + rng.nextGaussian().toFloat * 0.05f)
      val got = idx.search(q, 10).map(_._1).toSet
      val brute = data.indices.map(j => (j.toLong, Distance.l2(q, data(j))))
        .sortBy { case (id, d) => (d, id) }.take(10).map(_._1).toSet
      hits += got.intersect(brute).size; total += 10
    }
    assert(hits.toDouble / total > 0.9, s"recall = ${hits.toDouble / total}")
  }

  test("returned distances are true distances, ascending") {
    val data = ring(100)
    val idx = Hnsw.buildIndex(data)
    val q = Array(0.5f, 0.5f)
    val got = idx.search(q, 7)
    for (i <- got.indices) {
      assert(math.abs(got(i)._2 - Distance.l2(data(got(i)._1.toInt), q)) < 1e-9)
      if (i > 0) assert(got(i)._2 >= got(i - 1)._2)
    }
  }

  test("index bytes grow with data size") {
    val small = Hnsw.buildIndex(ring(100))
    val large = Hnsw.buildIndex(ring(1000))
    assert(large.indexBytes > small.indexBytes)
  }
}
