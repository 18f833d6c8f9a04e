package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers.forAllSamples

class HilbertSpec extends AnyFunSuite {

  /** Curve position as an integer: keys are MSB-aligned fixed-width bit
    * strings, so the numeric position is the key value shifted right by the
    * trailing pad bits.
    */
  private def pos(h: Hilbert, key: Array[Byte]): BigInt =
    BigInt(1, key) >> (h.keyBytes * 8 - h.dims * h.order)

  // --- known small curves -----------------------------------------------

  test("1-d order-3 curve is the identity") {
    val h = Hilbert(1, 3)
    for (i <- 0L until 8L) {
      assert(pos(h, h.encode(Array(i))) == BigInt(i))
      assert(h.decode(h.encode(Array(i))).toSeq == Seq(i))
    }
  }

  test("2-d order-1 curve visits the 4 cells once each") {
    val h = Hilbert(2, 1)
    val keys = for (x <- 0L to 1L; y <- 0L to 1L) yield pos(h, h.encode(Array(x, y)))
    assert(keys.toSet == (0 until 4).map(BigInt(_)).toSet)
  }

  test("2-d order-2 curve is a bijection over 16 cells") {
    val h = Hilbert(2, 2)
    val keys = for (x <- 0L to 3L; y <- 0L to 3L) yield pos(h, h.encode(Array(x, y)))
    assert(keys.toSet == (0 until 16).map(BigInt(_)).toSet)
  }

  test("3-d order-2 curve is a bijection over 64 cells") {
    val h = Hilbert(3, 2)
    val keys = for (x <- 0L to 3L; y <- 0L to 3L; z <- 0L to 3L)
      yield pos(h, h.encode(Array(x, y, z)))
    assert(keys.toSet == (0 until 64).map(BigInt(_)).toSet)
  }

  // --- the defining Hilbert property ------------------------------------

  def adjacencyCheck(dims: Int, order: Int): Unit = {
    val h = Hilbert(dims, order)
    val total = BigInt(1) << (dims * order)
    var prev: Array[Long] = null
    var k = BigInt(0)
    while (k < total) {
      // build the key bytes for integer k
      val bytes = k.toByteArray.dropWhile(_ == 0)
      val key = new Array[Byte](h.keyBytes)
      // right-align value bits within dims*order bits, then account for padding:
      // pack uses MSB-first over exactly dims*order bits, trailing pad zero bits.
      val padBits = h.keyBytes * 8 - dims * order
      val shifted = k << padBits
      val sb = shifted.toByteArray.dropWhile(_ == 0)
      sb.zipWithIndex.foreach { case (b, i) => key(h.keyBytes - sb.length + i) = b }
      val coords = h.decode(key)
      if (prev != null) {
        val l1 = coords.zip(prev).map { case (a, b) => math.abs(a - b) }.sum
        assert(l1 == 1, s"keys $k-1 -> $k not L1-adjacent: ${prev.toSeq} -> ${coords.toSeq}")
      }
      prev = coords
      k += 1
    }
  }

  test("consecutive keys decode to L1-adjacent cells (2d, order 3)") { adjacencyCheck(2, 3) }
  test("consecutive keys decode to L1-adjacent cells (3d, order 2)") { adjacencyCheck(3, 2) }
  test("consecutive keys decode to L1-adjacent cells (4d, order 2)") { adjacencyCheck(4, 2) }
  test("consecutive keys decode to L1-adjacent cells (2d, order 5)") { adjacencyCheck(2, 5) }

  // --- round trips -------------------------------------------------------

  test("encode/decode round-trips for random coords across shapes") {
    val shapes = Seq((2, 8), (4, 8), (8, 4), (16, 8), (16, 32), (13, 32), (86, 16), (64, 32))
    val rng = new scala.util.Random(42)
    for ((dims, order) <- shapes; _ <- 1 to 20) {
      val h = Hilbert(dims, order)
      val max = (BigInt(1) << order) - 1
      val coords = Array.fill(dims)((BigInt(order, rng) min max).toLong)
      assert(h.decode(h.encode(coords)).toSeq == coords.toSeq,
             s"round-trip failed for dims=$dims order=$order")
    }
  }

  /** SHA-256 over the keys of fixed-seed coordinates, all-zero and all-max
    * coordinates first, for shapes from one dimension to sun's ω = 32 and
    * the widest keys of Table 3. Pins every key bit: the index's trees and
    * windows depend on them.
    */
  test("encode's keys are pinned by digest") {
    val shapes = Seq((1, 62), (2, 31), (3, 3), (13, 32), (16, 8), (32, 32), (64, 32), (86, 16))
    val rng = new scala.util.Random(20180901)
    val md = java.security.MessageDigest.getInstance("SHA-256")
    for ((dims, order) <- shapes) {
      val h = Hilbert(dims, order)
      val max = (1L << order) - 1
      md.update(h.encode(Array.fill(dims)(0L)))
      md.update(h.encode(Array.fill(dims)(max)))
      for (_ <- 1 to 200) md.update(h.encode(Array.fill(dims)(rng.nextLong() & max)))
    }
    val digest = md.digest().map(b => f"${b & 0xff}%02x").mkString
    assert(digest == "d67d7d55a1c2468897a674d540ae58148175e704a9015ecbacbe9ed853b99758", digest)
  }

  test("key width matches ceil(dims*order/8) for all Table 3 shapes") {
    assert(Hilbert(16, 8).keyBytes == 16)
    assert(Hilbert(16, 32).keyBytes == 64)
    assert(Hilbert(64, 32).keyBytes == 256)
    assert(Hilbert(24, 32).keyBytes == 96)
    assert(Hilbert(86, 16).keyBytes == 172)
    assert(Hilbert(13, 32).keyBytes == 52)
    assert(Hilbert(3, 3).keyBytes == 2) // 9 bits -> 2 bytes
  }

  test("byte-key ordering equals numeric ordering of the curve position") {
    val h = Hilbert(3, 4)
    val rng = new scala.util.Random(7)
    val coords = Array.fill(200)(Array.fill(3)(rng.nextInt(16).toLong))
    val keys = coords.map(h.encode)
    val byBytes = keys.sorted(Hilbert.keyOrdering).map(BigInt(1, _))
    val byNum   = keys.map(BigInt(1, _)).sorted
    assert(byBytes.toSeq == byNum.toSeq)
  }

  test("hex rendering sorts identically to byte keys") {
    val h = Hilbert(5, 7)
    val rng = new scala.util.Random(3)
    val keys = Array.fill(100)(h.encode(Array.fill(5)(rng.nextInt(128).toLong)))
    val a = keys.sorted(Hilbert.keyOrdering).map(Hilbert.hex).toSeq
    val b = keys.map(Hilbert.hex).sorted.toSeq
    assert(a == b)
  }

  test("encodeVector clamps out-of-domain values instead of failing") {
    val h = Hilbert(2, 4)
    val kLow  = h.encodeVector(Array(-5f, -5f), 0, 0.0, 1.0)
    val kHigh = h.encodeVector(Array(5f, 5f), 0, 0.0, 1.0)
    assert(h.decode(kLow).forall(_ == 0))
    assert(h.decode(kHigh).forall(_ == 15))
  }

  test("encodeVector respects the from offset") {
    val h = Hilbert(2, 8)
    val v = Array(0.1f, 0.2f, 0.7f, 0.9f)
    val k1 = h.encodeVector(v, 0, 0.0, 1.0)
    val k2 = h.encodeVector(v, 2, 0.0, 1.0)
    assert(h.decode(k1).toSeq == Seq((0.1 * 256).toLong, (0.2 * 256).toLong))
    assert(h.decode(k2).toSeq == Seq((0.7 * 256).toLong, (0.9 * 256).toLong))
  }

  test("nearby points get nearby keys more often than far points (locality)") {
    // statistical sanity: mean |key rank difference| of perturbed points is
    // far below that of random pairs
    val h = Hilbert(2, 8)
    val rng = new scala.util.Random(5)
    val pts = Array.fill(500)(Array(rng.nextInt(256).toLong, rng.nextInt(256).toLong))
    def keyNum(p: Array[Long]) = BigInt(1, h.encode(p))
    val near = pts.map { p =>
      val q = Array(math.min(255, p(0) + 1), p(1))
      (keyNum(p) - keyNum(q)).abs.toDouble
    }
    val far = pts.map { _ =>
      val a = Array(rng.nextInt(256).toLong, rng.nextInt(256).toLong)
      val b = Array(rng.nextInt(256).toLong, rng.nextInt(256).toLong)
      (keyNum(a) - keyNum(b)).abs.toDouble
    }
    assert(near.sum / near.length < far.sum / far.length / 4)
  }

  test("invalid parameters are rejected") {
    assertThrows[IllegalArgumentException](Hilbert(0, 3))
    assertThrows[IllegalArgumentException](Hilbert(2, 0))
    assertThrows[IllegalArgumentException](Hilbert(2, 63))
    assertThrows[IllegalArgumentException](Hilbert(2, 3).encode(Array(1L)))
    assertThrows[IllegalArgumentException](Hilbert(2, 3).encode(Array(8L, 0L)))
    assertThrows[IllegalArgumentException](Hilbert(2, 3).decode(new Array[Byte](5)))
  }

  test("property: round-trip holds for arbitrary dims/order/coords") {
    val gen = for {
      dims  <- Gen.choose(1, 96)
      order <- Gen.choose(1, 62)
      coords <- Gen.listOfN(dims, Gen.choose(0L, (1L << order) - 1))
    } yield (dims, order, coords.toArray)
    forAllSamples(gen, n = 100) { case (dims, order, coords) =>
      val h = Hilbert(dims, order)
      assert(h.decode(h.encode(coords)).toSeq == coords.toSeq)
    }
  }

  test("property: distinct coords give distinct keys") {
    val h = Hilbert(4, 6)
    val pair = Gen.zip(Gen.listOfN(4, Gen.choose(0L, 63L)), Gen.listOfN(4, Gen.choose(0L, 63L)))
    forAllSamples(pair, n = 100) { case (a, b) =>
      if (a != b)
        assert(BigInt(1, h.encode(a.toArray)) != BigInt(1, h.encode(b.toArray)))
    }
  }
}
