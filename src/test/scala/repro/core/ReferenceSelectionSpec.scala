package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ReferenceSelectionSpec extends AnyFunSuite {

  private def grid2d(n: Int): Array[Array[Float]] = {
    val side = math.sqrt(n.toDouble).toInt
    (for (x <- 0 until side; y <- 0 until side) yield Array(x.toFloat, y.toFloat)).toArray
  }

  lazy val data: Array[Array[Float]] = grid2d(400)

  test("estimateDMax finds a distance close to the true diameter") {
    val est  = ReferenceSelection.estimateDMax(data)
    val trueD = Distance.l2(Array(0f, 0f), Array(19f, 19f))
    assert(est >= trueD * 0.7, s"estimate $est far below diameter $trueD")
    assert(est <= trueD + 1e-9)
  }

  test("random selection returns m distinct in-range ids, deterministically") {
    val a = ReferenceSelection.random(data, 10)
    val b = ReferenceSelection.random(data, 10)
    assert(a.toSeq == b.toSeq)
    assert(a.distinct.length == 10)
    assert(a.forall(i => i >= 0 && i < data.length))
  }

  test("SSS returns m references") {
    assert(ReferenceSelection.sss(data, 10).length == 10)
  }

  test("SSS references are pairwise farther than f*dmax (when scan suffices)") {
    val f    = 0.3
    val refs = ReferenceSelection.sss(data, 5, f)
    val dmax = ReferenceSelection.estimateDMax(data)
    for (i <- refs.indices; j <- i + 1 until refs.length) {
      assert(Distance.l2(data(refs(i)), data(refs(j))) > f * dmax * 0.999,
             s"refs $i,$j too close")
    }
  }

  test("SSS is deterministic in the seed") {
    assert(ReferenceSelection.sss(data, 8).toSeq == ReferenceSelection.sss(data, 8).toSeq)
    assert(ReferenceSelection.sss(data, 8, seed = 1).toSeq !=
           ReferenceSelection.sss(data, 8, seed = 2).toSeq)
  }

  test("SSS spreads better than the worst random draw (min pairwise distance)") {
    def minPairwise(ids: Array[Int]): Double =
      (for (i <- ids.indices; j <- i + 1 until ids.length)
        yield Distance.l2(data(ids(i)), data(ids(j)))).min
    val sssMin = minPairwise(ReferenceSelection.sss(data, 8))
    val randMins = (1 to 10).map(s => minPairwise(ReferenceSelection.random(data, 8, seed = s)))
    assert(sssMin >= randMins.min)
  }

  test("SSS with too-large f falls back to farthest-point fill and still returns m") {
    val refs = ReferenceSelection.sss(data, 10, f = 0.95)
    assert(refs.length == 10)
    assert(refs.distinct.length == 10)
  }

  test("every method selects no references for m = 0 and rejects a negative m") {
    assert(ReferenceSelection.random(data, 0).isEmpty)
    assert(ReferenceSelection.sss(data, 0).isEmpty)
    assertThrows[IllegalArgumentException](ReferenceSelection.random(data, -1))
    assertThrows[IllegalArgumentException](ReferenceSelection.sss(data, -1))
  }

  test("SSS rejects more references than objects, naming both counts") {
    val five = data.take(5)
    val e = intercept[IllegalArgumentException](ReferenceSelection.sss(five, 10))
    assert(e.getMessage.contains("m = 10") && e.getMessage.contains("n = 5"), e.getMessage)
    assert(ReferenceSelection.sss(five, 5).sorted.toSeq == (0 until 5))
  }

  test("selection works on degenerate tiny datasets") {
    val two = Array(Array(0f, 0f), Array(1f, 1f))
    assert(ReferenceSelection.random(two, 5).length == 2) // capped at n
    assert(ReferenceSelection.estimateDMax(two) > 0)
  }
}
