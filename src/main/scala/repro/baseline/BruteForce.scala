package repro.baseline

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.core.{DistributedTopK, Measure, TraceStore}

/** Brute-force comparator (the paper's strawman in §3): score the query
  * against every entity and sort. Serves three roles: (1) the baseline
  * whose cost motivates the index, (2) ground truth for exactness tests,
  * (3) the Spark-vs-DuckDB oracle subject.
  */
object BruteForce {

  /** Distributed full scan: DataFrame (entity, degree) for every entity
    * with a non-zero degree to the query. An absent query, or level cells
    * of another depth than `sp`, fail the `require`s of
    * [[DistributedTopK.queryCells]].
    */
  def degreesDf(
      spark: SparkSession,
      levelCells: Dataset[(Long, Array[Array[Long]])],
      qEntity: Long,
      measure: Measure,
      sp: repro.spindex.SpIndex,
  ): DataFrame = {
    import spark.implicits._
    val qCells = DistributedTopK.queryCells(levelCells, qEntity, sp.m)
    DistributedTopK.degrees(spark, levelCells, qEntity, qCells, measure, candidates = None)
      .filter($"degree" > 0.0)
  }

  /** Driver full scan over a TraceStore: all (entity, degree) pairs sorted
    * by (degree desc, entity asc), query excluded. Zero-degree entities
    * included so rankings are total.
    */
  def rankAll(store: TraceStore, measure: Measure, q: Long): IndexedSeq[(Long, Double)] = {
    require(store.contains(q), s"query entity $q has no trace")
    store.entities.iterator
      .filter(_ != q)
      .map(e => (e, store.degree(measure, e, q)))
      .toIndexedSeq
      .sortBy { case (e, d) => (-d, e) }
  }

  /** Driver top-k. */
  def topK(store: TraceStore, measure: Measure, q: Long, k: Int): Seq[(Long, Double)] = {
    require(k >= 1)
    rankAll(store, measure, q).take(k)
  }
}
