package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec, VectorData}
import repro.baselines.LinearScan

/** Sec. 3.6 inserts as copy-on-write: an insert into any snapshot, the
  * newest or an older one, writes new pages and chunks only, so every
  * snapshot keeps answering for its own objects.
  */
class CopyOnWriteSpec extends SparkSpec {

  /** 1-byte keys: values from a small alphabet make runs of equal keys
    * that cross page boundaries and splits.
    */
  private val curve = Hilbert(1, 8)
  private def key(v: Int): Array[Byte] = Array(v.toByte)

  test("property: every tree snapshot equals its sorted-array reference, inserts branching from older snapshots") {
    val cases = for {
      order    <- Gen.choose(1, 5)
      n0       <- Gen.choose(0, 20)
      inserts  <- Gen.choose(1, 40)
      alphabet <- Gen.choose(1, 6)
      seed     <- Gen.choose(0L, Long.MaxValue)
    } yield (order, n0, inserts, alphabet, seed)
    var splits = 0
    var equalAcrossPages = 0
    PropHelpers.forAllSamples(cases, n = 400) { case (order, n0, inserts, alphabet, seed) =>
      val rng = new scala.util.Random(seed)
      // (key, id) entries in (key, id) order
      val init = Vector.tabulate(n0)(id => (rng.nextInt(alphabet), id)).sorted
      val snapshots = scala.collection.mutable.ArrayBuffer(
        LocalTree.load(0, 0, curve, order, init.flatMap(e => key(e._1)).toArray, init.map(_._2).toArray) -> init)
      for (_ <- 1 to inserts) {
        // mostly the newest snapshot, else any older one
        val (tree, ref) = snapshots(if (rng.nextInt(3) == 0) rng.nextInt(snapshots.length) else snapshots.length - 1)
        val entry = (rng.nextInt(alphabet), ref.length)
        val next = tree.inserted(key(entry._1), entry._2)
        if (next.pages.length > math.max(1, tree.pages.length)) splits += 1
        snapshots += next -> (ref :+ entry).sorted
      }
      val clue = s"order=$order n0=$n0 inserts=$inserts alphabet=$alphabet seed=$seed"
      for (((tree, ref), i) <- snapshots.zipWithIndex) {
        assert(tree.n == ref.length && tree.keys.length == ref.length && tree.ids.length == ref.length, s"$clue snapshot $i")
        assert(tree.keys.map(_(0).toInt) == ref.map(_._1), s"$clue snapshot $i keys")
        assert(tree.ids == ref.map(_._2), s"$clue snapshot $i ids")
        assert(tree.pages.forall(p => p.ids.length >= 1 && p.ids.length <= order && p.keys.length == p.ids.length),
               s"$clue snapshot $i pages")
        equalAcrossPages += tree.pages.sliding(2).count {
          case Array(a, b) => a.keys.last == b.keys.head
          case _           => false
        }
        if (ref.nonEmpty) {
          val s = rng.nextInt(ref.length)
          val e = s + rng.nextInt(ref.length - s + 1)
          val out = new Array[Int](e - s)
          tree.copyIds(s, e, out)
          assert(out.toSeq == ref.slice(s, e).map(_._2), s"$clue snapshot $i copyIds($s, $e)")
        }
      }
    }
    assert(splits > 0 && equalAcrossPages > 0, s"splits $splits, equal keys across pages $equalAcrossPages")
  }

  test("property: every refdist snapshot equals its rows, rows appended to older snapshots") {
    val cases = for {
      m       <- Gen.choose(0, 3)
      n0      <- Gen.choose(0, 150)
      inserts <- Gen.choose(1, 100)
      seed    <- Gen.choose(0L, Long.MaxValue)
    } yield (m, n0, inserts, seed)
    PropHelpers.forAllSamples(cases, n = 100) { case (m, n0, inserts, seed) =>
      val rng = new scala.util.Random(seed)
      def row(): Array[Float] = Array.fill(m)(rng.nextFloat())
      val init = Vector.fill(n0)(row())
      val snapshots = scala.collection.mutable.ArrayBuffer(Refdists(m, init.toArray) -> init)
      for (_ <- 1 to inserts) {
        val (table, rows) = snapshots(if (rng.nextInt(3) == 0) rng.nextInt(snapshots.length) else snapshots.length - 1)
        val r = row()
        snapshots += table.withRow(r) -> (rows :+ r)
      }
      for (((table, rows), i) <- snapshots.zipWithIndex) {
        assert(table.length == rows.length && table.m == m, s"m=$m n0=$n0 seed=$seed snapshot $i")
        assert(table.corresponds(rows)(java.util.Arrays.equals(_, _)), s"m=$m n0=$n0 seed=$seed snapshot $i")
        assert(table.chunks.dropRight(1).forall(_.length == m << Refdists.ChunkBits))
      }
    }
  }

  test("property: with alpha = beta = gamma = n, every model snapshot answers as LinearScan") {
    // 16 integer coordinates in [0, 3] over τ = 2 trees of Ω = 50 entries
    // (η·ω/8 + 4m + 8 = 80 bytes): the 100 objects fill two pages, so the
    // first insert into each splits it, and equal vectors are common
    val base = VectorData.tiny.copy(name = "cow", dim = 16, n = 100, lo = 0, hi = 3, integerValued = true,
                                    stdFrac = 0.3, nClusters = 4, omega = 32, tau = 2, nQueries = 5)
    PropHelpers.forAllSamples(Gen.choose(0L, Long.MaxValue), n = 4) { seed =>
      val spec = base.copy(seed = seed)
      val local = spec.localData
      val cfg = HdIndex.configFor(spec)
      assert(RdbTree.leafOrder(8, 32, cfg.m) == 50)
      val rng = new scala.util.Random(seed)
      val snapshots = scala.collection.mutable.ArrayBuffer(
        HdIndex.build(spark, spec.data(spark), local, cfg) -> local.toVector)
      for (j <- 1 to 60) {
        val (model, vecs) = snapshots(if (rng.nextInt(3) == 0) rng.nextInt(snapshots.length) else snapshots.length - 1)
        // half of the inserts copy an object: equal keys in every tree
        val v = if (rng.nextBoolean()) vecs(rng.nextInt(vecs.length)) else spec.point(10000L + j)
        snapshots += HdIndex.insert(model, model.n, v) -> (vecs :+ v)
      }
      for (((model, vecs), i) <- snapshots.zipWithIndex; q <- spec.queries; pto <- Seq(false, true)) {
        val n = model.n
        val k = 1 + rng.nextInt(n + 5)
        val p = QueryParams(k, n, n, n)
        val got = HdQuery.searchLocal(model, q.vec, p, id => vecs(id.toInt))._1
        assert(got.toSeq == new LinearScan.Index(vecs.toArray).search(q.vec, k).toSeq, s"seed $seed snapshot $i k=$k")
      }
    }
  }
}
