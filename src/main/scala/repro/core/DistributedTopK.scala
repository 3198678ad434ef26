package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Distributed top-k query processing: Algorithm 2 with Spark leaf
  * evaluation. The driver-resident MinSigTree is searched best-first as on
  * the driver; popped leaves are held until they reach a batch of entities,
  * and each batch is scored exactly by one distributed pass over the
  * level-cells DataFrame (the threshold algorithm of Fagin, Lotem and Naor:
  * sorted access plus a stopping bound).
  */
object DistributedTopK {

  /** Exact degrees of candidate entities against query cells.
    *
    * @param levelCells DataFrame (entity, level, cell) — see [[Cells.levelCells]]
    * @param qCells     query's per-level cell arrays (index = level-1)
    * @return DataFrame (entity, degree) for every candidate with a trace,
    *         degree 0 included
    */
  def degrees(
      spark: SparkSession,
      levelCells: DataFrame,
      qEntity: Long,
      qCells: Array[Array[Long]],
      measure: Measure,
      candidates: Option[Set[Long]] = None,
  ): DataFrame = {
    import spark.implicits._
    val m = qCells.length
    val qSizes = qCells.map(_.length)
    val bcQ = spark.sparkContext.broadcast(qCells.map(_.toSet))
    val bcCand = spark.sparkContext.broadcast(candidates)
    val bcM = spark.sparkContext.broadcast(measure)
    levelCells
      .select("entity", "level", "cell")
      .as[(Long, Int, Long)]
      .filter { r =>
        r._1 != qEntity && bcCand.value.forall(_.contains(r._1))
      }
      .groupByKey(_._1)
      .mapGroups { (e, rows) =>
        val ov = new Array[Int](m)
        val sizes = new Array[Int](m)
        rows.foreach { case (_, l, c) =>
          sizes(l - 1) += 1
          if (bcQ.value(l - 1).contains(c)) ov(l - 1) += 1
        }
        // Candidate first, query second, as in TraceSource.degree.
        (e, bcM.value.degree(ov, sizes, qSizes))
      }
      .toDF("entity", "degree")
  }

  /** Collect a query entity's per-level cells from the DataFrame. */
  def queryCells(spark: SparkSession, levelCells: DataFrame, q: Long, m: Int): Array[Array[Long]] = {
    import spark.implicits._
    val rows = levelCells
      .filter($"entity" === q)
      .select("level", "cell")
      .as[(Int, Long)]
      .collect()
    require(rows.nonEmpty, s"query entity $q has no trace")
    val byLevel = rows.groupBy(_._1)
    Array.tabulate(m)(li => byLevel.getOrElse(li + 1, Array.empty).map(_._2).sorted)
  }

  /** Full search; query cells are read from the DataFrame. Leaves are
    * scored once they hold `batchEntities` entities, and when the search
    * ends.
    */
  def search(
      spark: SparkSession,
      tree: MinSigTree,
      levelCells: DataFrame,
      hasher: CellHasher,
      measure: Measure,
      qEntity: Long,
      k: Int,
      batchEntities: Int = 4096,
  ): TopKResult = {
    import spark.implicits._
    val qCells = queryCells(spark, levelCells, qEntity, tree.sp.m)
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
