package repro.core

import repro.spindex.SpIndex

/** Hash family over ST-cells with the hierarchy constraint of §3.2.1:
  * for a unit cell `(t, l_x)` and any child `l_y` of `l_x`,
  * `h_u(t, l_x) ≤ h_u(t, l_y)` — realized exactly as
  * `h_u(t, pat(l)) = min over children h_u(t, child)`, the construction the
  * paper itself proposes.
  *
  * The trait is pluggable so tests can inject the literal hash table of
  * Example 3.2.
  */
trait CellHasher extends Serializable {

  /** Number of hash functions n_h. */
  def nh: Int

  /** Exclusive upper bound of hash values (the paper's `n × t` range). */
  def range: Int

  /** Hash of the level-`level` cell `(t, unit)` under function `u`
    * (0-based). `level = m` with `unit = baseLoc` is the base-cell hash.
    */
  def unit(u: Int, level: Int, t: Int, unitId: Int): Int

  /** Hash of a base ST-cell. */
  def base(sp: SpIndex, u: Int, t: Int, loc: Int): Int = unit(u, sp.m, t, loc)

  /** Fold one base cell into a running signature accumulator `mins`
    * (flattened `m × nh`, layout `mins(level-1)*nh + u`), i.e. one step of
    * computing `sig_e^l[u] = min over cells in seq_e^l of h_u(cell)` for
    * every level and hash function at once (§3.2.1).
    */
  def updateMins(sp: SpIndex, t: Int, loc: Int, mins: Array[Int]): Unit = {
    var u = 0
    while (u < nh) {
      var l = 1
      while (l <= sp.m) {
        val v = unit(u, l, t, sp.ancestor(l, loc))
        val idx = (l - 1) * nh + u
        if (v < mins(idx)) mins(idx) = v
        l += 1
      }
      u += 1
    }
  }
}

/** Production hash family: `h_u(t, unit) = T_u(t) + σ_u(unit)` where
  * `T_u(t)` is a per-(u, t) pseudo-random value in `[0, partRange)` and
  * `σ_u(unit)` is the minimum over the unit's base descendants of a
  * per-(u, base) pseudo-random value in `[0, partRange)` (pre-rolled up the
  * sp-index). Because the sum is monotone in σ and σ rolls up by min, the
  * paper's parent-min constraint holds exactly at every level, which is all
  * Theorems 3.1–3.3 and 4.1 need; hash uniformity affects only pruning
  * power, not correctness.
  */
final class AdditiveHasher(sp: SpIndex, val nh: Int, seed: Long) extends CellHasher {

  // The paper's [0, n·t) range, split evenly between the time part and the
  // location part. `SpIndex.build` caps nBase at 2^24, so `range` < 2^25.
  private val partRange: Int = math.max(2, sp.nBase)

  val range: Int = 2 * partRange - 1

  // sigma(l-1)(unit)(u): rolled-up per-unit location hash minima.
  private val sigma = AdditiveHasher.buildSigma(sp, nh, seed ^ 0x51ed270b, partRange)

  // Memoized time-part rows: tRow(t)(u) = T_u(t). Signature computation
  // touches every (u, t) pair of a trace, so recomputing the mix per call
  // dominates; a concurrent cache (tasks share the broadcast instance per
  // executor) makes it one array read.
  @transient private lazy val tCache =
    new java.util.concurrent.ConcurrentHashMap[Integer, Array[Int]]()

  private def tRow(t: Int): Array[Int] =
    tCache.computeIfAbsent(t, _ => Array.tabulate(nh)(u => AdditiveHasher.mixInt(seed, u, t, partRange)))

  def unit(u: Int, level: Int, t: Int, unitId: Int): Int =
    tRow(t)(u) + sigma(level - 1)(unitId)(u)

  override def updateMins(sp2: SpIndex, t: Int, loc: Int, mins: Array[Int]): Unit = {
    val tps = tRow(t)
    var l = 1
    while (l <= sp2.m) {
      val sigRow = sigma(l - 1)(sp2.ancestor(l, loc))
      val off = (l - 1) * nh
      var u = 0
      while (u < nh) {
        val v = tps(u) + sigRow(u)
        if (v < mins(off + u)) mins(off + u) = v
        u += 1
      }
      l += 1
    }
  }
}

object AdditiveHasher {

  /** [[repro.SplitMix.mix]] of (seed, a, b) onto [0, mod). */
  private[core] def mixInt(seed: Long, a: Int, b: Int, mod: Int): Int =
    Math.floorMod(repro.SplitMix.mix(seed, a, b), mod)

  // A static loop over rows filled by `Arrays.fill`: the same loop in the
  // class body, over `Array.fill(w, nh)` rows (boxed writes), took ~20× as long.
  private def buildSigma(sp: SpIndex, nh: Int, seed: Long, partRange: Int): Array[Array[Array[Int]]] = {
    val s = Array.tabulate(sp.m) { li =>
      Array.fill(sp.widths(li)) { val row = new Array[Int](nh); java.util.Arrays.fill(row, Int.MaxValue); row }
    }
    var loc = 0
    while (loc < sp.nBase) {
      var u = 0
      while (u < nh) {
        val v = mixInt(seed, u, loc, partRange)
        var l = 1
        while (l <= sp.m) {
          val row = s(l - 1)(sp.ancestor(l, loc))
          if (v < row(u)) row(u) = v
          l += 1
        }
        u += 1
      }
      loc += 1
    }
    s
  }
}
