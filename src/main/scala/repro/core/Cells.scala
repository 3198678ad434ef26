package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.spindex.SpIndex

/** ST-cell encoding and per-level cell-set construction (§3.1).
  *
  * A base ST-cell is `(t, loc)` with `loc` a base-unit Morton rank; a
  * level-`l` cell is `(t, unit)` with `unit` the level-`l` ancestor of some
  * base unit. Cells are packed into a Long as `t << 24 | unit` (unit ids
  * stay far below 2^24 at all reproduction scales).
  */
object Cells {

  val UnitBits = 24
  val UnitMask: Long = (1L << UnitBits) - 1

  def encode(t: Int, unit: Int): Long = (t.toLong << UnitBits) | unit
  def timeOf(cell: Long): Int = (cell >>> UnitBits).toInt
  def unitOf(cell: Long): Int = (cell & UnitMask).toInt

  /** The one grouping of raw base cells `(entity, t, loc)` by entity, each
    * entity's `(t, loc)` pairs in input order. The trace store, signatures,
    * level cells and cluster baseline all start from it.
    */
  def byEntity(spark: SparkSession, cells: DataFrame): Dataset[(Long, Array[(Int, Int)])] = {
    import spark.implicits._
    cells
      .select("entity", "t", "loc")
      .as[(Long, Int, Int)]
      .groupByKey(_._1)
      .mapGroups { (e, rows) => (e, rows.map { case (_, t, loc) => (t, loc) }.toArray) }
  }

  /** Distributed ST-cell set sequence: each entity's [[rollup]], the
    * per-level sorted distinct arrays `seq_e^l` that the driver
    * `TraceStore` holds, as one row `(entity, seq)` with `seq(l-1)` the
    * level-`l` cells. The Spark leaf step, the Spark brute force and the
    * cluster baseline read it.
    */
  def levelCells(spark: SparkSession, cells: DataFrame, sp: SpIndex): Dataset[(Long, Array[Array[Long]])] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(sp)
    byEntity(spark, cells).map { case (e, base) => (e, rollup(base, bc.value)) }
  }

  /** Roll one entity's base cells, in any order and with repeats, up to
    * per-level sorted distinct arrays: `result(l-1)` holds the encoded
    * level-`l` cells. Sort, then dedupe in place, over primitive arrays.
    */
  def rollup(base: Array[(Int, Int)], sp: SpIndex): Array[Array[Long]] =
    Array.tabulate(sp.m) { li =>
      val cs = new Array[Long](base.length)
      var i = 0
      while (i < cs.length) { cs(i) = encode(base(i)._1, sp.ancestor(li + 1, base(i)._2)); i += 1 }
      java.util.Arrays.sort(cs)
      var n = 0 // cs(0 until n) holds the distinct cells seen so far
      i = 0
      while (i < cs.length) {
        if (n == 0 || cs(i) != cs(n - 1)) { cs(n) = cs(i); n += 1 }
        i += 1
      }
      java.util.Arrays.copyOf(cs, n)
    }

  /** Exact association degree of candidate `a` to query `b`, given each
    * entity's record: one sorted distinct cell array per level, as
    * [[rollup]] returns. Fills the per-level overlaps and sizes in one
    * primitive loop, then calls `measure.degree`. Every exact degree (the
    * trace sources, brute force and the Spark map) is computed here.
    */
  def degree(measure: Measure, a: Array[Array[Long]], b: Array[Array[Long]]): Double = {
    val ov = new Array[Int](a.length)
    val sa = new Array[Int](a.length)
    val sb = new Array[Int](a.length)
    var li = 0
    while (li < a.length) {
      ov(li) = intersectCount(a(li), b(li))
      sa(li) = a(li).length
      sb(li) = b(li).length
      li += 1
    }
    measure.degree(ov, sa, sb)
  }

  /** Intersection size of two sorted distinct Long arrays (two-pointer). */
  def intersectCount(a: Array[Long], b: Array[Long]): Int = {
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { n += 1; i += 1; j += 1 }
    }
    n
  }
}
