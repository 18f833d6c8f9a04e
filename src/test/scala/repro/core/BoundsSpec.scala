package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.forAllSamples

/** Lower-bound filters (Eqs. 5–6): both must never exceed the true distance,
  * and the Ptolemaic bound must dominate tightness-wise in aggregate.
  */
class BoundsSpec extends AnyFunSuite {

  private val vecGen: Gen[Array[Float]] =
    Gen.listOfN(8, Gen.choose(-50.0, 50.0)).map(_.map(_.toFloat).toArray)

  private def setup(q: Array[Float], o: Array[Float], refs: Array[Array[Float]]) = {
    val dq = refs.map(r => Distance.l2(q, r))
    val rd = refs.map(r => Distance.l2(o, r).toFloat)
    val matrix = Array.tabulate(refs.length, refs.length)((i, j) => Distance.l2(refs(i), refs(j)))
    (dq, rd, matrix)
  }

  test("triangular bound is a lower bound of the true distance") {
    val gen = Gen.zip(vecGen, vecGen, Gen.listOfN(5, vecGen))
    forAllSamples(gen, n = 300) { case (q, o, refs) =>
      val (dq, rd, _) = setup(q, o, refs.toArray)
      assert(HdQuery.triBound(dq, rd) <= Distance.l2(q, o) + 1e-6)
    }
  }

  test("ptolemaic bound is a lower bound of the true distance") {
    val gen = Gen.zip(vecGen, vecGen, Gen.listOfN(5, vecGen))
    forAllSamples(gen, n = 300) { case (q, o, refs) =>
      val (dq, rd, m) = setup(q, o, refs.toArray)
      assert(HdQuery.ptolemaicBound(dq, rd, m) <= Distance.l2(q, o) + 1e-6)
    }
  }

  /** q, o and m references where the bounds are tight or their
    * denominators small: points at scales from 1e-3 to 1e3, references on
    * the line through q and o but outside the segment (Eqs. 5 and 6 hold
    * with equality there), and near-copies of another reference.
    */
  private val tightGen: Gen[(Array[Float], Array[Float], Array[Array[Float]])] = for {
    dim   <- Gen.oneOf(2, 8, 32)
    scale <- Gen.oneOf(1e-3, 1.0, 1e3)
    m     <- Gen.choose(1, 6)
    seed  <- Gen.choose(0L, Long.MaxValue)
  } yield {
    val rng = new scala.util.Random(seed)
    def point(): Array[Float] = Array.fill(dim)((rng.nextGaussian() * scale).toFloat)
    val q = point()
    val o = point()
    val refs = new Array[Array[Float]](m)
    for (i <- 0 until m) refs(i) = rng.nextInt(3) match {
      case 0 => point()
      case 1 => // o + t·(o − q): beyond o for t > 0, beyond q for t < −1
        val u = 0.1 + rng.nextDouble() * 10
        val t = if (rng.nextBoolean()) u else -1 - u
        Array.tabulate(dim)(d => (o(d) + t * (o(d) - q(d))).toFloat)
      case _ =>
        val base = if (i > 0) refs(rng.nextInt(i)) else o
        base.map(x => x + (rng.nextGaussian() * scale * 1e-4).toFloat)
    }
    (q, o, refs)
  }

  /** The ε of [[HdQuery.triBound]]'s scaladoc: 2⁻²³ · max_i max(dq(i), rd(i)). */
  private def triEps(dq: Array[Double], rd: Array[Float]): Double =
    math.scalb(dq.indices.map(i => math.max(dq(i), rd(i).toDouble)).foldLeft(0.0)(math.max), -23)

  /** The ε of [[HdQuery.ptolemaicBound]]'s scaladoc: 2⁻²³ times the largest
    * (dq(i)·rd(j) + dq(j)·rd(i)) / d(R_i, R_j) over the pairs i < j with
    * d(R_i, R_j) > 0.
    */
  private def ptoEps(dq: Array[Double], rd: Array[Float], matrix: Array[Array[Double]]): Double = {
    val terms = for (i <- dq.indices; j <- i + 1 until dq.length if matrix(i)(j) > 0)
      yield (dq(i) * rd(j) + dq(j) * rd(i)) / matrix(i)(j)
    math.scalb(terms.foldLeft(0.0)(math.max), -23)
  }

  test("both bounds exceed the true distance by at most their stated epsilon (property)") {
    var triAbove = 0
    var ptoAbove = 0
    forAllSamples(tightGen, n = 4000) { case (q, o, refs) =>
      val (dq, rd, matrix) = setup(q, o, refs)
      val d = Distance.l2(q, o)
      val tri = HdQuery.triBound(dq, rd)
      val pto = HdQuery.ptolemaicBound(dq, rd, matrix)
      assert(tri <= d + triEps(dq, rd), s"tri $tri > d $d + ${triEps(dq, rd)}")
      assert(pto <= d + ptoEps(dq, rd, matrix), s"pto $pto > d $d + ${ptoEps(dq, rd, matrix)}")
      if (tri > d) triAbove += 1
      if (pto > d) ptoAbove += 1
    }
    // the Float refdists do push both bounds past d: the epsilon is needed
    assert(triAbove > 0 && ptoAbove > 0, s"above d: tri $triAbove, pto $ptoAbove")
  }

  test("triangular bound is exact when the object is a reference") {
    val q = Array(1f, 2f, 3f, 4f, 5f, 6f, 7f, 8f)
    val o = Array(0f, 0f, 0f, 0f, 0f, 0f, 0f, 0f)
    val (dq, rd, _) = setup(q, o, Array(o)) // o itself is the only reference
    assert(math.abs(HdQuery.triBound(dq, rd) - Distance.l2(q, o)) < 1e-6)
  }

  test("ptolemaic is tighter than triangular in aggregate (Sec. 5.2.5 rationale)") {
    val rng = new scala.util.Random(7)
    def rv() = Array.fill(16)((rng.nextDouble() * 100 - 50).toFloat)
    val refs = Array.fill(10)(rv())
    var triSum = 0.0; var ptoSum = 0.0; var trueSum = 0.0
    for (_ <- 1 to 300) {
      val q = rv(); val o = rv()
      val (dq, rd, m) = setup(q, o, refs)
      triSum  += HdQuery.triBound(dq, rd)
      ptoSum  += HdQuery.ptolemaicBound(dq, rd, m)
      trueSum += Distance.l2(q, o)
    }
    assert(ptoSum >= triSum * 0.98, "ptolemaic should not be materially looser than triangular")
    assert(ptoSum <= trueSum, "still a lower bound in aggregate")
  }

  test("bounds are zero when query equals object and references coincide appropriately") {
    val v = Array(1f, 1f)
    val refs = Array(Array(0f, 0f), Array(2f, 2f))
    val (dq, rd, m) = setup(v, v, refs)
    // refdists are stored as Float (the RDB-tree leaf layout), so the
    // bound of an identical point is zero only up to Float rounding.
    assert(HdQuery.triBound(dq, rd) < 1e-6)
    assert(HdQuery.ptolemaicBound(dq, rd, m) < 1e-6)
  }

  test("ptolemaic bound guards zero reference-pair distance") {
    val q = Array(1f, 2f); val o = Array(3f, 4f)
    val r = Array(0f, 0f)
    val (dq, rd, m) = setup(q, o, Array(r, r)) // duplicate references: d(R1,R2)=0
    assert(!HdQuery.ptolemaicBound(dq, rd, m).isNaN)
  }

  test("triangular bound with a single reference equals |d(q,r) - d(o,r)|") {
    val q = Array(0f, 0f); val o = Array(4f, 0f); val r = Array(10f, 0f)
    val (dq, rd, _) = setup(q, o, Array(r))
    assert(math.abs(HdQuery.triBound(dq, rd) - 4.0) < 1e-6)
  }
}
