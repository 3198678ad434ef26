package repro.core

import repro.SparkSpec
import repro.mobility.{ImModel, ImParams, TraceGen}
import repro.spindex.SpIndex

/** Pinned outputs of the shared SplitMix mix: the hash family and both
  * trace generators must keep producing these exact values, so every
  * answer, counter and figure computed from them stays reproducible.
  */
class PinnedValuesSpec extends SparkSpec {

  private def fold(xs: Iterator[Long]): Long = xs.foldLeft(17L)((h, x) => h * 1000003L ^ x)

  test("generator and hash outputs match their pinned values") {
    val mixInts = Seq((123L, 0, 0, 64), (123L, 5, 35, 64), (-7L, 1 << 20, -3, 1000003), (0L, 99, 7, 2))
      .map { case (s, a, b, mod) => AdditiveHasher.mixInt(s, a, b, mod) }
    assert(mixInts == Seq(4, 15, 520626, 0))

    val syn = TraceGen.synLocal(16, 32, ImParams(horizon = 120), seed = 7)
    val synSum = fold(syn.toSeq.sortBy(_._1).iterator.flatMap { case (e, cs) =>
      Iterator(e, cs.length.toLong) ++ cs.iterator.flatMap { case (t, loc) => Iterator(t.toLong, loc.toLong) }
    })
    assert((syn.valuesIterator.map(_.length).sum, synSum) == (735, 1723124365528834694L))

    val stays = ImModel.simulateStays(3, 16, ImParams(), seed = 11)
    val staySum = fold(stays.iterator.flatMap(s => Iterator(s.t.toLong, s.dt.toLong, s.loc.toLong)))
    assert((stays.length, staySum) == (47, 4232886414092581458L))

    import spark.implicits._
    val real = TraceGen.realLike(spark, side = 16, nEntities = 20, horizon = 48, seed = 7)
      .as[(Long, Int, Int)].collect().sorted
    val realSum = fold(real.iterator.flatMap { case (e, t, loc) => Iterator(e, t.toLong, loc.toLong) })
    assert((real.length, realSum) == (659, -967570397878586086L))

    val sp = SpIndex.build(16, 4, 2.0, 2.0)
    val h = new AdditiveHasher(sp, nh = 8, seed = 5)
    val units = Seq((0, 1, 0, 0), (3, 2, 7, 1), (7, 4, 100, 255), (5, 3, 42, sp.ancestor(3, 200)))
      .map { case (u, l, t, unit) => h.unit(u, l, t, unit) }
    assert(units == Seq(360, 437, 267, 129))
  }
}
