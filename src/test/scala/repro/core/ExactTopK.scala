package repro.core

import org.scalatest.Assertions._

import repro.baseline.BruteForce

/** The test-wide definition of an exact Top-k answer. */
object ExactTopK {

  /** Asserts that `hits` is an exact Top-k answer for `q`: its degree list
    * equals brute force's (zero degrees included), its ids are distinct and
    * exclude `q`, and each listed degree is the entity's true degree. Which
    * of several equal-degree entities fill the last places is left open.
    */
  def check(hits: Seq[(Long, Double)], store: TraceStore, measure: Measure, q: Long, k: Int,
      clue: String = ""): Unit = {
    val where = s"q=$q k=$k $clue"
    val expected = BruteForce.topK(store, measure, q, k).map(_._2)
    assert(hits.size == expected.size, s"$where: ${hits.size} hits, brute force has ${expected.size}")
    hits.map(_._2).zip(expected).zipWithIndex.foreach { case ((g, e), i) =>
      assert(math.abs(g - e) < 1e-9, s"$where rank $i: got $g expected $e")
    }
    val ids = hits.map(_._1)
    assert(ids.distinct.size == ids.size, s"$where: duplicate ids in $ids")
    assert(!ids.contains(q), s"$where: the query is in its own answer")
    hits.foreach { case (e, d) =>
      assert(math.abs(store.degree(measure, e, q) - d) < 1e-9, s"$where: entity $e listed with $d")
    }
  }
}

/** A test-only measure whose value changes when the entity's and the
  * query's sizes are swapped: per level `4·ov / (sa + 3·sb)`, level-weighted.
  * It meets Eq. 3 (rises with `ov`, falls with `sa`, at most 1), so the
  * Theorem 4.1 bound holds for it.
  */
final case class AsymmetricMeasure(m: Int) extends Measure {
  private val z: Double = (1 to m).sum.toDouble

  def degree(ov: Array[Int], sa: Array[Int], sb: Array[Int]): Double = {
    var s = 0.0
    var l = 0
    while (l < m) {
      if (ov(l) > 0) s += (l + 1) / z * 4.0 * ov(l) / (sa(l) + 3.0 * sb(l))
      l += 1
    }
    s
  }
}
