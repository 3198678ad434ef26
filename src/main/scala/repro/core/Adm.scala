package repro.core

/** Association degree measures (§2.2, §6.1, Appendix D).
  *
  * A measure consumes per-level statistics of a pair of entities:
  * `ov(l-1)` = |seq_a^l ∩ seq_b^l| (AjPI duration at level l, in base
  * temporal units, since every cell spans one unit), `sa(l-1)` = |seq_a^l|,
  * `sb(l-1)` = |seq_b^l|. All measures here satisfy the constraints of
  * Eq. 3, so Theorem 4.1's artificial-entity upper bound
  * (`degree(ov=c, sa=c, sb=|seq_q|)`) is valid for each of them.
  */
trait Measure extends Serializable {
  def m: Int

  /** Association degree in [0, 1]. Arrays are indexed by level-1. */
  def degree(ov: Array[Int], sa: Array[Int], sb: Array[Int]): Double
}

/** The paper's ADM (Eq. 20):
  * `d = Σ_l l^u · (|P_ab^l| / (|P_a^l| + |P_b^l|))^v / max`,
  * `max = Σ_l l^u · (1/2)^v` (attained when the traces coincide).
  * At `u = v = 1` this is exactly level-weighted Dice with weights `l/Z`.
  * `v` must be positive: for `v < 0` a level's term falls as its overlap
  * grows, and for `v = 0` it ignores the overlap's size.
  */
final case class AdmMeasure(m: Int, u: Double = 1.0, v: Double = 1.0) extends Measure {
  require(v > 0, s"ADM needs v > 0 (Theorem 4.1), got v = $v: for v < 0 a level's term falls as " +
    "its overlap grows, so the artificial-entity upper bound is unsound; v = 0 ignores the overlap")

  private val lw: Array[Double] = Array.tabulate(m)(l => math.pow(l + 1.0, u))
  private val max: Double = lw.map(_ * math.pow(0.5, v)).sum

  def degree(ov: Array[Int], sa: Array[Int], sb: Array[Int]): Double = {
    var s = 0.0
    var l = 0
    while (l < m) {
      if (ov(l) > 0) {
        val r = ov(l).toDouble / (sa(l) + sb(l))
        // math.pow(r, 1.0) is r by its contract, so v = 1 skips the call.
        s += lw(l) * (if (v == 1.0) r else math.pow(r, v))
      }
      l += 1
    }
    s / max
  }
}

/** Level-weighted classic set similarities (Appendix D): per level Dice,
  * Jaccard, or Cosine, combined with weights `w_l = l / Z`.
  */
sealed abstract class SetSimMeasure(val m: Int) extends Measure {
  private val z: Double = (1 to m).sum.toDouble
  protected def sim(ov: Int, sa: Int, sb: Int): Double

  def degree(ov: Array[Int], sa: Array[Int], sb: Array[Int]): Double = {
    var s = 0.0
    var l = 0
    while (l < m) {
      if (ov(l) > 0) s += (l + 1) / z * sim(ov(l), sa(l), sb(l))
      l += 1
    }
    s
  }
}

final case class DiceMeasure(override val m: Int) extends SetSimMeasure(m) {
  protected def sim(ov: Int, sa: Int, sb: Int): Double = 2.0 * ov / (sa + sb)
}

final case class JaccardMeasure(override val m: Int) extends SetSimMeasure(m) {
  protected def sim(ov: Int, sa: Int, sb: Int): Double = ov.toDouble / (sa + sb - ov)
}

final case class CosineMeasure(override val m: Int) extends SetSimMeasure(m) {
  protected def sim(ov: Int, sa: Int, sb: Int): Double = ov / math.sqrt(sa.toDouble * sb)
}
