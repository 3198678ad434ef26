package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.spindex.SpIndex

/** One entity's signature list (§3.2.1): `sig` is the flattened `m × n_h`
  * matrix with layout `sig((level-1)*nh + u)` — `sig_e^level[u]`.
  */
final case class EntitySig(entity: Long, sig: Array[Int])

/** Signature computation: `sig_e^l[u] = min over seq_e^l of h_u(cell)`.
  *
  * All `m` levels are computed in one pass over the base cells because the
  * level-`l` visited cells are exactly the level-`l` ancestors of the
  * visited base cells.
  */
object Signatures {

  /** Distributed path: [[Cells.byEntity]], each entity folded by
    * [[computeLocal]]. Entities with no cells produce no signature.
    */
  def compute(spark: SparkSession, cells: DataFrame, sp: SpIndex, hasher: CellHasher): Dataset[EntitySig] = {
    import spark.implicits._
    val bcH = spark.sparkContext.broadcast(hasher)
    val bcS = spark.sparkContext.broadcast(sp)
    Cells.byEntity(spark, cells)
      .map { case (e, base) => EntitySig(e, computeLocal(base, bcS.value, bcH.value)) }
  }

  /** The signature fold of one entity's base cells; the distributed path,
    * unit tests and incremental updates all use it.
    */
  def computeLocal(base: Array[(Int, Int)], sp: SpIndex, hasher: CellHasher): Array[Int] = {
    val mins = Array.fill(sp.m * hasher.nh)(Int.MaxValue)
    base.foreach { case (t, loc) => hasher.updateMins(sp, t, loc, mins) }
    mins
  }

  /** Routing vector (§3.2.2, Step 1): per level, the 0-based position of the
    * maximal hash value in that level's signature (ties → lowest index),
    * together with that maximal value.
    */
  def routing(sig: Array[Int], m: Int, nh: Int): (Array[Int], Array[Int]) = {
    val idx = new Array[Int](m)
    val value = new Array[Int](m)
    var l = 0
    while (l < m) {
      var best = 0
      var u = 1
      while (u < nh) {
        if (sig(l * nh + u) > sig(l * nh + best)) best = u
        u += 1
      }
      idx(l) = best
      value(l) = sig(l * nh + best)
      l += 1
    }
    (idx, value)
  }
}
