package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.forAllSamples

class DistanceSpec extends AnyFunSuite {

  test("l2 on axis-aligned unit difference is 1") {
    assert(Distance.l2(Array(0f, 0f), Array(1f, 0f)) == 1.0)
  }

  test("l2 3-4-5 triangle") {
    assert(Distance.l2(Array(0f, 0f), Array(3f, 4f)) == 5.0)
  }

  test("l2sq equals l2 squared") {
    val a = Array(1f, 2f, 3f); val b = Array(4f, 6f, 3f)
    assert(math.abs(Distance.l2sq(a, b) - math.pow(Distance.l2(a, b), 2)) < 1e-9)
  }

  test("dim mismatch is rejected") {
    assertThrows[IllegalArgumentException](Distance.l2(Array(1f), Array(1f, 2f)))
  }

  test("property: metric axioms (symmetry, identity, triangle inequality)") {
    val vec = Gen.listOfN(6, Gen.choose(-100.0, 100.0)).map(_.map(_.toFloat).toArray)
    forAllSamples(Gen.zip(vec, vec, vec), n = 200) { case (a, b, c) =>
      val ab = Distance.l2(a, b); val ba = Distance.l2(b, a)
      assert(math.abs(ab - ba) < 1e-9)
      assert(Distance.l2(a, a) == 0.0)
      assert(ab <= Distance.l2(a, c) + Distance.l2(c, b) + 1e-6)
    }
  }

  test("topK returns the k smallest, ascending, ties by id") {
    val scored = Seq((5L, 3.0), (1L, 1.0), (2L, 1.0), (9L, 0.5), (7L, 9.0))
    val got = Distance.topK(scored.iterator, 3).toSeq
    assert(got == Seq((9L, 0.5), (1L, 1.0), (2L, 1.0)))
  }

  test("topK with k larger than input returns everything sorted") {
    val got = Distance.topK(Seq((1L, 2.0), (2L, 1.0)).iterator, 10).toSeq
    assert(got == Seq((2L, 1.0), (1L, 2.0)))
  }

  test("topK on empty input is empty") {
    assert(Distance.topK(Iterator.empty, 5).isEmpty)
  }

  test("property: topK agrees with full sort") {
    val gen = Gen.listOf(Gen.zip(Gen.choose(0L, 1000L), Gen.choose(0.0, 100.0)))
    forAllSamples(gen, n = 100) { xs =>
      val distinctIds = xs.distinctBy(_._1)
      val expect = distinctIds.sortBy { case (id, s) => (s, id) }.take(5)
      val got = Distance.topK(distinctIds.iterator, 5).toSeq
      assert(got == expect)
    }
  }

  test("property: topK agrees with full sort when distances tie; worst is the k-th distance") {
    // distances from {0, ..., 4} over distinct ids in random order: most
    // inputs tie at the k-th distance
    val gen = for {
      n     <- Gen.choose(0, 40)
      ids   <- Gen.pick(n, 0L until 1000L)
      ds    <- Gen.listOfN(n, Gen.choose(0, 4).map(_.toDouble))
      order <- Gen.listOfN(n, Gen.choose(0.0, 1.0))
      k     <- Gen.choose(0, n + 3)
    } yield (ids.zip(ds).zip(order).sortBy(_._2).map(_._1).toVector, k)
    var tiedAtK = 0
    forAllSamples(gen, n = 300) { case (xs, k) =>
      val expect = xs.sortBy { case (id, d) => (d, id) }.take(k)
      val sorted = xs.map(_._2).sorted
      if (k > 0 && k < xs.length && sorted(k - 1) == sorted(k)) tiedAtK += 1
      assert(Distance.topK(xs.iterator, k).toSeq == expect)
      val top = new Distance.TopK(k)
      for (held <- 0 to xs.length) {
        val want = if (held < k) Double.PositiveInfinity
                   else if (k == 0) Double.NegativeInfinity
                   else xs.take(held).map(_._2).sorted.apply(k - 1)
        assert(top.worst == want, s"after $held of $xs, k = $k")
        if (held < xs.length) top.offer(xs(held)._1, xs(held)._2)
      }
      assert(top.result().toSeq == expect)
    }
    assert(tiedAtK > 50, s"only $tiedAtK inputs tied at the k-th distance")
  }

  test("property: l2sq4 equals l2sq bit-for-bit, and stops early only past the cap") {
    // dimensions 1-200 put 64-coordinate block edges and short tails in
    // every position; lanes are random vectors or copies of q, and caps sit
    // at +inf, at 0, at a lane's exact l2sq and just below it
    val gen = for {
      dim   <- Gen.choose(1, 200)
      seed  <- Gen.choose(0L, Long.MaxValue)
      kinds <- Gen.listOfN(4, Gen.choose(0, 3))
      capAt <- Gen.choose(0, 4)
      lane  <- Gen.choose(0, 3)
    } yield (dim, seed, kinds, capAt, lane)
    var stopped, completed = 0
    forAllSamples(gen, n = 2000) { case (dim, seed, kinds, capAt, lane) =>
      val rng = new scala.util.Random(seed)
      val q = Array.fill(dim)((rng.nextGaussian() * 10).toFloat)
      val lanes = kinds.map(kind => if (kind == 0) q.clone() else Array.fill(dim)((rng.nextGaussian() * 10).toFloat))
      val full = lanes.map(v => Distance.l2sq(v, q))
      val cap = capAt match {
        case 0 => Double.PositiveInfinity
        case 1 => 0.0
        case 2 => full(lane)
        case 3 => Math.nextDown(full(lane))
        case _ => full(lane) * rng.nextDouble()
      }
      val out = new Array[Double](4)
      val summed = Distance.l2sq4(q, lanes(0), lanes(1), lanes(2), lanes(3), cap, out)
      if (summed == dim) {
        completed += 1
        for (j <- 0 until 4)
          assert(java.lang.Double.doubleToRawLongBits(out(j)) == java.lang.Double.doubleToRawLongBits(full(j)),
                 s"lane $j of dim $dim: ${out(j)} vs ${full(j)}")
      } else {
        stopped += 1
        assert(summed > 0 && summed < dim && summed % 64 == 0, s"stopped after $summed of $dim")
        for (j <- 0 until 4) {
          assert(out(j) > cap && out(j) <= full(j), s"lane $j of dim $dim")
          assert(full(j) > cap)
        }
      }
    }
    assert(stopped > 50 && completed > 50, s"$stopped stopped early, $completed completed")
  }

  test("l2sq4 rejects lanes of another dimension") {
    val q = new Array[Float](3)
    assertThrows[IllegalArgumentException](
      Distance.l2sq4(q, q, q, new Array[Float](2), q, 0.0, new Array[Double](4)))
  }

  test("property: sqCap is the largest x with sqrt(x) <= worst") {
    val worst = Gen.oneOf(
      Gen.choose(0.0, 1e4),
      Gen.choose(-320.0, 300.0).map(math.pow(10, _)), // subnormal to huge squares
      Gen.choose(0, 1000).map(_.toDouble),
      Gen.const(0.0), Gen.const(Double.MinPositiveValue), Gen.const(Double.MaxValue))
    forAllSamples(worst, n = 2000) { w =>
      val cap = Distance.sqCap(w)
      assert(math.sqrt(cap) <= w && w < math.sqrt(Math.nextUp(cap)), s"worst $w, cap $cap")
    }
    assert(Distance.sqCap(Double.PositiveInfinity) == Double.PositiveInfinity)
    assertThrows[IllegalArgumentException](Distance.sqCap(-1.0))
  }
}
