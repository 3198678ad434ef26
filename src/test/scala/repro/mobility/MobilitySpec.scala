package repro.mobility

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

/** Behavior of the IM-model substrate (§5.1): determinism, bounds, and the
  * qualitative distribution laws (Eqs. 5–9) the paper's analysis relies on.
  */
class MobilitySpec extends AnyFunSuite {

  private val p = ImParams(horizon = 200)

  test("simulate is deterministic in (seed, entity)") {
    val a = ImModel.simulate(7L, 32, p, seed = 1)
    val b = ImModel.simulate(7L, 32, p, seed = 1)
    assert(a.toSeq == b.toSeq)
  }

  test("different entities/seeds give different traces") {
    val a = ImModel.simulate(7L, 32, p, seed = 1)
    val b = ImModel.simulate(8L, 32, p, seed = 1)
    val c = ImModel.simulate(7L, 32, p, seed = 2)
    assert(a.toSeq != b.toSeq)
    assert(a.toSeq != c.toSeq)
  }

  test("one cell per time unit, times within horizon, locs within grid") {
    for (e <- 0L until 20L) {
      val cells = ImModel.simulate(e, 16, p, seed = 3)
      assert(cells.nonEmpty)
      val times = cells.map(_._1)
      assert(times.distinct.length == times.length, "duplicate time unit")
      assert(times.forall(t => t >= 0 && t < p.horizon))
      assert(cells.map(_._2).forall(l => l >= 0 && l < 16 * 16))
    }
  }

  test("times are the full horizon prefix union (entity always somewhere)") {
    // The simulator emits consecutive stays; the union of stay intervals
    // covers [0, horizon) exactly.
    val cells = ImModel.simulate(5L, 16, p, seed = 4)
    assert(cells.map(_._1).sorted.toSeq == (0 until p.horizon).toSeq)
  }

  test("simulateStays covers [0, horizon) with contiguous stays") {
    for (e <- 0L until 10L) {
      val stays = ImModel.simulateStays(e, 16, p, seed = 11)
      assert(stays.head.t == 0)
      assert(stays.map(s => s.t + s.dt).last == p.horizon)
      stays.zip(stays.tail).foreach { case (a, b) => assert(a.t + a.dt == b.t) }
      assert(stays.forall(s => s.dt >= 1 && s.dt <= ImModel.DtMax))
    }
  }

  test("simulate is exactly the expansion of simulateStays") {
    val stays = ImModel.simulateStays(3L, 16, p, seed = 12)
    val cells = ImModel.simulate(3L, 16, p, seed = 12)
    assert(cells.toSeq == stays.toSeq.flatMap(s => (0 until s.dt).map(j => (s.t + j, s.loc))))
  }

  test("paretoInt stays within [1, max] and is deterministic per rng state") {
    val rng = new SplittableRandom(1)
    val xs = Seq.fill(2000)(ImModel.paretoInt(rng, 0.8, 24))
    assert(xs.forall(x => x >= 1 && x <= 24))
  }

  test("paretoInt has a heavy tail: P(1) dominates but long stays occur (Eq. 5)") {
    val rng = new SplittableRandom(2)
    val xs = Seq.fill(20000)(ImModel.paretoInt(rng, 0.8, 24))
    val p1 = xs.count(_ == 1).toDouble / xs.size
    assert(p1 > 0.3, s"P(dt=1)=$p1 should dominate")
    assert(xs.count(_ >= 10) > 100, "long stays should still occur")
  }

  test("paretoInt: larger exponent -> shorter durations on average") {
    val rng = new SplittableRandom(3)
    val lo = Seq.fill(20000)(ImModel.paretoInt(rng, 0.5, 100)).map(_.toDouble).sum
    val hi = Seq.fill(20000)(ImModel.paretoInt(rng, 2.0, 100)).map(_.toDouble).sum
    assert(lo > hi)
  }

  test("zipfRank covers [1, n] and favors low ranks (Eq. 8)") {
    val rng = new SplittableRandom(4)
    val xs = Seq.fill(20000)(ImModel.zipfRank(rng, 10, 1.2))
    assert(xs.forall(x => x >= 1 && x <= 10))
    val c1 = xs.count(_ == 1)
    val c10 = xs.count(_ == 10)
    assert(c1 > 4 * math.max(1, c10), s"rank 1 ($c1) should dominate rank 10 ($c10)")
  }

  test("zipfRank with larger zeta is more concentrated") {
    val rng = new SplittableRandom(5)
    val flat = Seq.fill(10000)(ImModel.zipfRank(rng, 20, 0.2)).count(_ == 1)
    val peaky = Seq.fill(10000)(ImModel.zipfRank(rng, 20, 2.5)).count(_ == 1)
    assert(peaky > flat)
  }

  test("visit-frequency ranking is zipf-like: top location dominates") {
    val counts = ImModel.simulate(11L, 32, ImParams(horizon = 2000), seed = 6)
      .groupBy(_._2).view.mapValues(_.length).values.toSeq.sorted.reverse
    assert(counts.head.toDouble / counts.sum > 0.15,
      s"top location share ${counts.head.toDouble / counts.sum} too small for zipf-like visits")
  }

  test("distinct locations grow sublinearly with horizon (Eq. 9, S(t) ~ t^mu)") {
    def s(h: Int) = ImModel.simulate(3L, 64, ImParams(horizon = h), seed = 7).map(_._2).distinct.length
    val s200 = s(200); val s2000 = s(2000)
    assert(s2000 > s200, "more time, more locations")
    assert(s2000 < s200 * 10, s"growth should be sublinear: S(200)=$s200 S(2000)=$s2000")
  }

  test("smaller rho means fewer distinct locations (Eq. 6)") {
    def distinctLocs(rho: Double) = (0L until 30L).map { e =>
      ImModel.simulate(e, 32, ImParams(horizon = 500, rho = rho), seed = 8).map(_._2).distinct.length
    }.sum
    assert(distinctLocs(0.2) < distinctLocs(0.9))
  }

  test("larger gamma means fewer distinct locations (Eq. 6)") {
    def distinctLocs(g: Double) = (0L until 30L).map { e =>
      ImModel.simulate(e, 32, ImParams(horizon = 500, gamma = g), seed = 9).map(_._2).distinct.length
    }.sum
    assert(distinctLocs(0.8) < distinctLocs(0.05))
  }

  test("larger alpha concentrates jumps near the current position (Eq. 7)") {
    def meanDisp(alpha: Double): Double = {
      val cells = ImModel.simulate(1L, 64, ImParams(horizon = 3000, alpha = alpha, rho = 0.9, gamma = 0.0), seed = 10)
      val xy = cells.map(c => repro.spindex.SpIndex.unmorton(c._2))
      xy.zip(xy.tail).map { case ((x1, y1), (x2, y2)) => math.abs(x1 - x2) + math.abs(y1 - y2) }
        .map(_.toDouble).sum / xy.size
    }
    assert(meanDisp(2.5) < meanDisp(0.3))
  }
}
