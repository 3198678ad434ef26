package repro.core

import repro.SparkSpec
import repro.mobility.{ImModel, ImParams, TraceGen}
import repro.spindex.SpIndex

/** ST-cell encoding and level rollup (§3.1, Example 3.1). */
class CellsSpec extends SparkSpec {

  test("encode/timeOf/unitOf round-trip") {
    for (t <- Seq(0, 1, 719, 100000); u <- Seq(0, 1, 4095, (1 << 24) - 1)) {
      val c = Cells.encode(t, u)
      assert(Cells.timeOf(c) == t && Cells.unitOf(c) == u, s"t=$t u=$u")
    }
  }

  test("encoding preserves ordering by (t, unit)") {
    assert(Cells.encode(1, 5) < Cells.encode(2, 0))
    assert(Cells.encode(1, 5) < Cells.encode(1, 6))
  }

  test("Example 3.1: rollup builds seq^1 from seq^2 via parents") {
    val pe = repro.PaperExample
    // e has presence at L1 (loc 0) at T1 and L3 (loc 2) at T2.
    val seq = Cells.rollup(Array((0, 0), (1, 2)), pe.sp)
    val l5 = pe.sp.ancestor(1, 0)
    val l6 = pe.sp.ancestor(1, 2)
    assert(seq(1).toSet == Set(Cells.encode(0, 0), Cells.encode(1, 2)))
    assert(seq(0).toSet == Set(Cells.encode(0, l5), Cells.encode(1, l6)))
  }

  test("rollup deduplicates coarse cells from sibling base cells") {
    val pe = repro.PaperExample
    // L1 and L2 share parent L5; same time => one level-1 cell.
    val seq = Cells.rollup(Array((0, 0), (0, 1)), pe.sp)
    assert(seq(1).length == 2)
    assert(seq(0).length == 1)
  }

  test("rollup output is sorted and distinct at every level") {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val cells = ImModel.simulate(9L, 16, ImParams(horizon = 80), seed = 5)
    val seq = Cells.rollup(cells, sp)
    seq.foreach { arr =>
      assert(arr.toSeq == arr.toSeq.distinct.sorted)
    }
    // Coarser levels can only shrink or keep the cell count.
    assert(seq.zip(seq.tail).forall { case (coarse, fine) => coarse.length <= fine.length })
  }

  test("rollup of unsorted input with repeated base cells equals the sorted distinct reference") {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val rng = new java.util.SplittableRandom(3)
    for (_ <- 0 until 20) {
      val drawn = Array.fill(1 + rng.nextInt(40))((rng.nextInt(6), rng.nextInt(16)))
      // The reversed copy repeats every pair away from its first copy.
      val base = drawn ++ drawn.reverse
      val seq = Cells.rollup(base, sp)
      for (l <- 1 to sp.m) {
        val ref = base.map { case (t, loc) => Cells.encode(t, sp.ancestor(l, loc)) }.distinct.sorted
        assert(seq(l - 1).toSeq == ref.toSeq, s"level $l of ${base.toSeq}")
      }
    }
  }

  test("intersectCount equals set intersection size") {
    val rng = new java.util.SplittableRandom(1)
    for (_ <- 0 until 20) {
      val a = Array.fill(rng.nextInt(30))(rng.nextLong(100)).distinct.sorted
      val b = Array.fill(rng.nextInt(30))(rng.nextLong(100)).distinct.sorted
      assert(Cells.intersectCount(a, b) == a.toSet.intersect(b.toSet).size)
    }
  }

  test("levelCells DataFrame agrees with driver rollup") {
    import spark.implicits._
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val local = (0L until 10L).map(e => e -> ImModel.simulate(e, 16, ImParams(horizon = 30), seed = 8)).toMap
    val df = local.toSeq
      .flatMap { case (e, cs) => cs.map { case (t, loc) => (e, t, loc) } }
      .toDF("entity", "t", "loc")
    val got = Cells.levelCells(spark, df, sp).collect().toMap
    assert(got.keySet == local.keySet)
    local.foreach { case (e, cs) =>
      val seq = Cells.rollup(cs, sp)
      assert(got(e).length == sp.m, s"entity $e")
      for (l <- 1 to sp.m)
        assert(got(e)(l - 1).toSeq == seq(l - 1).toSeq, s"entity $e level $l")
    }
  }

  test("TraceStore.fromCells holds the driver rollup of every entity") {
    import spark.implicits._
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val local = TraceGen.synLocal(16, 60, ImParams(horizon = 60), seed = 12).filter(_._2.nonEmpty)
    val df = local.toSeq
      .flatMap { case (e, cs) => cs.map { case (t, loc) => (e, t, loc) } }
      .toDF("entity", "t", "loc")
      .repartition(5)
    val got = TraceStore.fromCells(spark, df, sp).data
    val want = TraceStore.fromLocal(local, sp).data
    assert(got.keySet == want.keySet)
    for ((e, seq) <- want; l <- 1 to sp.m)
      assert(got(e)(l - 1).toSeq == seq(l - 1).toSeq, s"entity $e level $l")
  }

  test("Cells.degree equals the measure over overlaps and sizes, bit for bit") {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val base = TraceGen.synLocal(16, 40, ImParams(horizon = 60), seed = 13) ++ Map(
      100L -> Array((3, 5)),                 // a single base cell
      101L -> Array((500, 7), (501, 7)),     // times no other trace reaches
    )
    val store = TraceStore.fromLocal(base, sp)
    // The trait's default degree, which fetches one level array at a time.
    val source = new TraceSource {
      def sp: SpIndex = store.sp
      def levelCells(e: Long, level: Int): Array[Long] = store.levelCells(e, level)
      def contains(e: Long): Boolean = store.contains(e)
    }
    val es = store.entities.toSeq.sorted
    assert(es.filter(_ != 101L).forall(e => store.overlaps(101L, e).forall(_ == 0)))
    val measures = Seq(AdmMeasure(sp.m, 1, 1), AdmMeasure(sp.m, 2, 0.5), AdmMeasure(sp.m, 0.5, 2),
      AdmMeasure(sp.m, 1, 1.5), DiceMeasure(sp.m), JaccardMeasure(sp.m), CosineMeasure(sp.m))
    def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
    for (d <- measures; a <- es; b <- es) {
      val want = bits(d.degree(store.overlaps(a, b), store.sizes(a), store.sizes(b)))
      assert(bits(Cells.degree(d, store.data(a), store.data(b))) == want, s"$d a=$a b=$b")
      assert(bits(store.degree(d, a, b)) == want, s"$d a=$a b=$b")
      assert(bits(source.degree(d, a, b)) == want, s"$d a=$a b=$b")
    }
  }
}
