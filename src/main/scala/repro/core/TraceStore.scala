package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.spindex.SpIndex

/** Source of per-entity per-level ST-cell sets (`seq_e^l`, §3.1), the data
  * needed for exact degree evaluation. Implemented by the in-memory
  * [[TraceStore]] and the memory-constrained
  * [[repro.storage.CachedTraceStore]] (§6.6 substrate).
  */
trait TraceSource {
  def sp: SpIndex

  /** Sorted distinct encoded level-`level` cells of entity `e`. */
  def levelCells(e: Long, level: Int): Array[Long]

  def contains(e: Long): Boolean

  /** Hint that the listed entities are about to be evaluated (leaf batch);
    * disk-backed sources use it to fetch in one scan.
    */
  def prefetch(es: Iterable[Long]): Unit = ()

  /** Base cells of an entity as (t, loc) pairs. */
  def baseCells(e: Long): Array[(Int, Int)] =
    levelCells(e, sp.m).map(c => (Cells.timeOf(c), Cells.unitOf(c)))

  def sizes(e: Long): Array[Int] =
    Array.tabulate(sp.m)(li => levelCells(e, li + 1).length)

  /** Per-level overlaps |seq_a^l ∩ seq_b^l| for l = 1..m. */
  def overlaps(a: Long, b: Long): Array[Int] =
    Array.tabulate(sp.m)(li => Cells.intersectCount(levelCells(a, li + 1), levelCells(b, li + 1)))

  /** Exact association degree of candidate `a` to query `b`: each level
    * array of both entities fetched once, then [[Cells.degree]].
    */
  def degree(measure: Measure, a: Long, b: Long): Double = {
    def record(e: Long) = Array.tabulate(sp.m)(li => levelCells(e, li + 1))
    Cells.degree(measure, record(a), record(b))
  }
}

/** Fully in-memory trace source: `data(e)(l-1)` is the sorted distinct
  * array of encoded level-`l` cells of entity `e`.
  */
final class TraceStore(val sp: SpIndex, val data: Map[Long, Array[Array[Long]]])
    extends TraceSource {

  def entities: Iterable[Long] = data.keys

  def levelCells(e: Long, level: Int): Array[Long] = data(e)(level - 1)

  def contains(e: Long): Boolean = data.contains(e)

  /** One `data` lookup per entity, then [[Cells.degree]]. */
  override def degree(measure: Measure, a: Long, b: Long): Double =
    Cells.degree(measure, data(a), data(b))
}

object TraceStore {

  /** Build from a cells DataFrame `(entity, t, loc)`: [[Cells.byEntity]],
    * collected, then [[fromLocal]]. Collects to the driver — reproduction
    * scales keep this to a few hundred MB at most, mirroring the paper's
    * single-node index server.
    */
  def fromCells(spark: SparkSession, cells: DataFrame, sp: SpIndex): TraceStore =
    fromLocal(Cells.byEntity(spark, cells).collect().toMap, sp)

  /** Build from driver-side base cells (unit tests, generators). */
  def fromLocal(base: Map[Long, Array[(Int, Int)]], sp: SpIndex): TraceStore =
    new TraceStore(sp, base.map { case (e, cs) => e -> Cells.rollup(cs, sp) })
}
