package repro.mobility

import java.util.SplittableRandom

import scala.collection.mutable

import repro.spindex.SpIndex

/** Parameters of the individual mobility (IM) model of §5.1 (after Song et
  * al. [42]), plus the simulated horizon.
  *
  * @param alpha   jump-displacement power-law exponent (Eq. 7)
  * @param beta    stay-duration power-law exponent (Eq. 5)
  * @param gamma   exploration-decay exponent (Eq. 6)
  * @param zeta    visit-frequency zipf exponent for returns (Eq. 8)
  * @param rho     exploration probability scale (Eq. 6)
  * @param horizon number of base temporal units simulated (e.g. hours)
  */
final case class ImParams(
    alpha: Double = 0.6,
    beta: Double = 0.8,
    gamma: Double = 0.2,
    zeta: Double = 1.2,
    rho: Double = 0.6,
    horizon: Int = 240,
)

/** One stay of an entity: `dt` consecutive base temporal units at `loc`
  * starting at `t` (a presence instance before detection sampling).
  */
final case class Stay(t: Int, dt: Int, loc: Int)

/** Discrete single-entity mobility simulator. Pure and deterministic in
  * `(seed, entity)` so Spark-side generation and driver-side tests agree.
  */
object ImModel {

  /** Cap on a single stay duration, in base temporal units. */
  val DtMax = 24

  /** Draw from a discrete power law P(x) ∝ x^(-1-exp), x ∈ [1, max],
    * via inverse CDF of the continuous Pareto, floored.
    */
  def paretoInt(rng: SplittableRandom, exp: Double, max: Int): Int = {
    val u = rng.nextDouble()
    val x = math.pow(1.0 - u, -1.0 / exp)
    math.min(max, math.max(1, x.toInt))
  }

  /** Sample a rank y ∈ [1, n] with P(y) ∝ y^(-zeta). O(n); n stays small
    * (bounded by the number of distinct locations an entity has visited).
    */
  def zipfRank(rng: SplittableRandom, n: Int, zeta: Double): Int = {
    var total = 0.0
    var i = 1
    while (i <= n) { total += math.pow(i, -zeta); i += 1 }
    var r = rng.nextDouble() * total
    i = 1
    while (i <= n) {
      r -= math.pow(i, -zeta)
      if (r <= 0) return i
      i += 1
    }
    n
  }

  /** Simulate one entity's movement as a sequence of stays covering
    * `[0, horizon)` (the entity is always somewhere).
    */
  def simulateStays(entity: Long, side: Int, p: ImParams, seed: Long): Array[Stay] = {
    val rng = new SplittableRandom(repro.SplitMix.mix(seed, entity))
    val out = mutable.ArrayBuffer.empty[Stay]
    var x = rng.nextInt(side)
    var y = rng.nextInt(side)
    // Visit counts, for preferential/zipf returns (Eq. 8).
    val visitCount = mutable.LinkedHashMap.empty[Int, Int]
    var t = 0
    while (t < p.horizon) {
      val loc = SpIndex.morton(x, y)
      visitCount(loc) = visitCount.getOrElse(loc, 0) + 1
      val dt = paretoInt(rng, p.beta, DtMax)
      out += Stay(t, math.min(dt, p.horizon - t), loc)
      t += dt
      // Jump: explore with probability rho * S^(-gamma) (Eq. 6), else
      // return to a previously visited unit by zipf rank of visit count.
      val s = visitCount.size
      if (rng.nextDouble() < p.rho * math.pow(s, -p.gamma)) {
        val dr = paretoInt(rng, p.alpha, side)
        val theta = rng.nextDouble() * 2 * math.Pi
        x = clamp(x + math.round(dr * math.cos(theta)).toInt, side)
        y = clamp(y + math.round(dr * math.sin(theta)).toInt, side)
      } else {
        val ranked = visitCount.toArray.sortBy { case (l, c) => (-c, l) }
        val rank = zipfRank(rng, ranked.length, p.zeta)
        val (lx, ly) = SpIndex.unmorton(ranked(rank - 1)._1)
        x = lx; y = ly
      }
    }
    out.toArray
  }

  /** Full-coverage trace of base ST-cells `(t, loc)`: one cell per time
    * unit, no duplicates — the expansion of [[simulateStays]].
    */
  def simulate(entity: Long, side: Int, p: ImParams, seed: Long): Array[(Int, Int)] =
    simulateStays(entity, side, p, seed).flatMap(s => (0 until s.dt).map(j => (s.t + j, s.loc)))

  private def clamp(v: Int, side: Int): Int = math.max(0, math.min(side - 1, v))
}
