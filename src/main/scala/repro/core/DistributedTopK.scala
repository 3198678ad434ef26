package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

/** Distributed top-k query processing: Algorithm 2 with Spark leaf
  * evaluation. The driver-resident MinSigTree is searched best-first as on
  * the driver; popped leaves are held until they reach a batch of entities,
  * and each batch is scored exactly by one narrow pass (a filter plus a
  * map, no shuffle) over the per-entity level cells of
  * [[Cells.levelCells]] (the threshold algorithm of Fagin, Lotem and Naor:
  * sorted access plus a stopping bound).
  */
object DistributedTopK {

  /** Exact degrees of candidate entities against query cells: a filter to
    * the candidates, then a map that scores each row against the broadcast
    * query arrays with [[Cells.degree]], as the driver does.
    *
    * @param levelCells per-entity level cells `(entity, seq)` — see [[Cells.levelCells]]
    * @param qCells     query's per-level cell arrays (index = level-1)
    * @return DataFrame (entity, degree) for every candidate with a trace,
    *         degree 0 included
    */
  def degrees(
      spark: SparkSession,
      levelCells: Dataset[(Long, Array[Array[Long]])],
      qEntity: Long,
      qCells: Array[Array[Long]],
      measure: Measure,
      candidates: Option[Set[Long]] = None,
  ): DataFrame = {
    import spark.implicits._
    val bcQ = spark.sparkContext.broadcast(qCells)
    val bcCand = spark.sparkContext.broadcast(candidates)
    val bcM = spark.sparkContext.broadcast(measure)
    levelCells
      .filter { r => r._1 != qEntity && bcCand.value.forall(_.contains(r._1)) }
      // Candidate first, query second, as in TraceSource.degree.
      .map { case (e, seq) => (e, Cells.degree(bcM.value, seq, bcQ.value)) }
      .toDF("entity", "degree")
  }

  /** Collect a query entity's per-level cells; they must have the index's
    * `m` levels.
    */
  def queryCells(levelCells: Dataset[(Long, Array[Array[Long]])], q: Long, m: Int): Array[Array[Long]] = {
    val rows = levelCells.filter(_._1 == q).collect()
    require(rows.nonEmpty, s"query entity $q has no trace")
    val seq = rows.head._2
    require(seq.length == m, s"level cells have ${seq.length} levels, the index has $m")
    seq
  }

  /** Full search; query cells are read from `levelCells`. Leaves are
    * scored once they hold `batchEntities` entities, and when the search
    * ends.
    */
  def search(
      spark: SparkSession,
      tree: MinSigTree,
      levelCells: Dataset[(Long, Array[Array[Long]])],
      hasher: CellHasher,
      measure: Measure,
      qEntity: Long,
      k: Int,
      batchEntities: Int = 4096,
  ): TopKResult = {
    import spark.implicits._
    val qCells = queryCells(levelCells, qEntity, tree.sp.m)
    val step = new LeafStep {
      private val held = mutable.HashSet.empty[Long]

      def take(leaf: SigNode, emit: (Long, Double) => Unit): Unit = {
        leaf.entities.foreach(e => if (e != qEntity) held += e)
        if (held.size >= batchEntities) flush(emit)
      }

      override def flush(emit: (Long, Double) => Unit): Unit =
        if (held.nonEmpty) {
          degrees(spark, levelCells, qEntity, qCells, measure, Some(held.toSet))
            .as[(Long, Double)]
            .collect()
            .foreach { case (e, d) => emit(e, d) }
          held.clear()
        }
    }
    BestFirst.search(tree, new QueryContext(tree.sp, hasher, measure, qCells), k, step)
  }
}
