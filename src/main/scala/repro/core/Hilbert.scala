package repro.core

/** Hilbert space-filling curve for arbitrary dimensionality and order.
  *
  * The paper builds its Hilbert keys with the Butz algorithm [20]; we use
  * Skilling's transpose formulation (J. Skilling, "Programming the Hilbert
  * curve", AIP 2004), which produces an equivalent Hilbert curve — the
  * locality invariant the index relies on (consecutive keys are L1-adjacent
  * grid cells) holds identically and is asserted by tests.
  *
  * Keys are fixed-width big-endian `Array[Byte]` of ceil(dims*order/8) bytes,
  * so unsigned lexicographic byte order (Spark `BinaryType` ordering, and
  * hex-string ordering in DuckDB) equals curve order. This is what lets the
  * RDB-tree build sort each tree by a plain unsigned byte comparison.
  *
  * @param dims  dimensionality η of the subspace the curve fills
  * @param order ω — bits per dimension; each dimension is split into 2^ω cells
  */
final case class Hilbert(dims: Int, order: Int) extends Serializable {
  require(dims >= 1, "dims must be >= 1")
  require(order >= 1 && order <= 62, "order must be in [1, 62]")

  /** Number of bytes in every key produced by this curve. */
  val keyBytes: Int = (dims * order + 7) / 8

  private val maxCoord: Long = (1L << order) - 1

  /** Map grid coordinates (each in [0, 2^order)) to the Hilbert key. */
  def encode(coords: Array[Long]): Array[Byte] = {
    require(coords.length == dims, s"expected $dims coords, got ${coords.length}")
    var i = 0
    while (i < dims) {
      require(coords(i) >= 0 && coords(i) <= maxCoord, s"coord ${coords(i)} out of [0, $maxCoord]")
      i += 1
    }
    val x = coords.clone()
    axesToTranspose(x)
    packTranspose(x)
  }

  /** Inverse of [[encode]]: Hilbert key back to grid coordinates. */
  def decode(key: Array[Byte]): Array[Long] = {
    require(key.length == keyBytes, s"expected $keyBytes key bytes, got ${key.length}")
    val x = unpackTranspose(key)
    transposeToAxes(x)
    x
  }

  /** Quantize one real-valued subspace vector (slice `[from, from+dims)` of
    * `v`) to grid coordinates for a value domain `[lo, hi]`, then encode.
    * Values outside the domain are clamped — matches the paper's fixed
    * per-dataset domains (Table 4).
    */
  def encodeVector(v: Array[Float], from: Int, lo: Double, hi: Double): Array[Byte] = {
    val coords = new Array[Long](dims)
    val scale  = (maxCoord + 1).toDouble / (hi - lo)
    var i = 0
    while (i < dims) {
      val c = math.floor((v(from + i) - lo) * scale).toLong
      coords(i) = math.min(maxCoord, math.max(0L, c))
      i += 1
    }
    // in range by the clamp, so encode's checks and copy are not needed
    axesToTranspose(coords)
    packTranspose(coords)
  }

  // --- Skilling 2004 ----------------------------------------------------

  /** In-place: axes -> transposed Hilbert coordinates. Branch-free: each
    * (bit s, dimension i) step turns bit s of x(i) into a mask `set` and
    * either inverts the low bits of x(0) (`set`) or exchanges them with
    * x(i)'s (`~set`), the two cases of Skilling's loop.
    */
  private def axesToTranspose(x: Array[Long]): Unit = {
    var x0 = x(0)
    // Inverse undo
    var s = order - 1
    while (s > 0) {
      val p = (1L << s) - 1
      x0 ^= p & -((x0 >>> s) & 1L)
      var i = 1
      while (i < dims) {
        val xi  = x(i)
        val set = -((xi >>> s) & 1L)
        val t   = (x0 ^ xi) & p & ~set
        x0 ^= (p & set) | t
        x(i) = xi ^ t
        i += 1
      }
      s -= 1
    }
    x(0) = x0
    // Gray encode
    var i = 1
    while (i < dims) { x(i) ^= x(i - 1); i += 1 }
    val last = x(dims - 1)
    var t = 0L
    s = order - 1
    while (s > 0) {
      t ^= ((1L << s) - 1) & -((last >>> s) & 1L)
      s -= 1
    }
    i = 0
    while (i < dims) { x(i) ^= t; i += 1 }
  }

  /** In-place: transposed Hilbert coordinates -> axes. */
  private def transposeToAxes(x: Array[Long]): Unit = {
    val n = 2L << (order - 1)
    // Gray decode
    var t = x(dims - 1) >> 1
    var i = dims - 1
    while (i > 0) { x(i) ^= x(i - 1); i -= 1 }
    x(0) ^= t
    // Undo excess work
    var q = 2L
    while (q != n) {
      val p = q - 1
      i = dims - 1
      while (i >= 0) {
        if ((x(i) & q) != 0) x(0) ^= p
        else { val tt = (x(0) ^ x(i)) & p; x(0) ^= tt; x(i) ^= tt }
        i -= 1
      }
      q <<= 1
    }
  }

  // --- bit packing ------------------------------------------------------
  // Key bit order (MSB first): bit b of the transpose, b = order-1 .. 0,
  // and within each b, dimension 0 .. dims-1. Trailing pad bits are zero.

  private def packTranspose(x: Array[Long]): Array[Byte] = {
    val out = new Array[Byte](keyBytes)
    var acc = 0
    var bitPos = 0
    var b = order - 1
    while (b >= 0) {
      var i = 0
      while (i < dims) {
        acc = (acc << 1) | ((x(i) >>> b).toInt & 1)
        bitPos += 1
        if ((bitPos & 7) == 0) out((bitPos >> 3) - 1) = acc.toByte
        i += 1
      }
      b -= 1
    }
    if ((bitPos & 7) != 0) out(bitPos >> 3) = (acc << (8 - (bitPos & 7))).toByte
    out
  }

  private def unpackTranspose(key: Array[Byte]): Array[Long] = {
    val x = new Array[Long](dims)
    var bitPos = 0
    var b = order - 1
    while (b >= 0) {
      var i = 0
      while (i < dims) {
        if (((key(bitPos >> 3) >> (7 - (bitPos & 7))) & 1) != 0)
          x(i) |= 1L << b
        bitPos += 1
        i += 1
      }
      b -= 1
    }
    x
  }
}

object Hilbert {

  /** Unsigned lexicographic comparison of two fixed-width keys — identical to
    * Spark's BinaryType ordering and to hex-string ordering in DuckDB. It is
    * `java.util.Arrays.compareUnsigned`, the comparison `HdIndex.build`'s
    * tree sort uses on key ranges.
    */
  def compareKeys(a: Array[Byte], b: Array[Byte]): Int = {
    require(a.length == b.length, "keys of different curves are not comparable")
    java.util.Arrays.compareUnsigned(a, b)
  }

  /** Uppercase hex rendering; sorts identically to the byte key. */
  def hex(key: Array[Byte]): String = key.map(b => f"${b & 0xff}%02X").mkString

  implicit val keyOrdering: Ordering[Array[Byte]] =
    (a: Array[Byte], b: Array[Byte]) => compareKeys(a, b)
}
