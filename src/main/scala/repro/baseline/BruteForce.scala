package repro.baseline

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

import repro.core.{Cells, DistributedTopK, Measure, TraceStore}

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

  /** Ranking order: degree desc, then entity asc. */
  private val byRank = Ordering.by[(Long, Double), (Double, Long)] { case (e, d) => (-d, e) }

  /** Every entity but `q`, and its degree to `q`: the query's record is
    * fetched once and each entity is scored once by [[Cells.degree]].
    */
  private def scores(store: TraceStore, measure: Measure, q: Long): (Array[Long], Array[Double]) = {
    require(store.contains(q), s"query entity $q has no trace")
    val qRec = store.data(q)
    val ids = new Array[Long](store.data.size - 1)
    val ds = new Array[Double](ids.length)
    var i = 0
    store.data.foreachEntry { (e, rec) =>
      if (e != q) { ids(i) = e; ds(i) = Cells.degree(measure, rec, qRec); i += 1 }
    }
    (ids, ds)
  }

  /** Driver full scan over a TraceStore: all (entity, degree) pairs sorted
    * by (degree desc, entity asc), query excluded. Zero-degree entities
    * included so rankings are total.
    */
  def rankAll(store: TraceStore, measure: Measure, q: Long): IndexedSeq[(Long, Double)] = {
    val (ids, ds) = scores(store, measure, q)
    ids.indices.map(i => (ids(i), ds(i))).sorted(byRank)
  }

  /** Driver top-k: exactly `rankAll(store, measure, q).take(k)`, without
    * ranking every entity. A primitive sort of the degrees gives the k-th
    * best degree `cut`; the entities above `cut` are ranked, and the
    * lowest ids at `cut` fill the places left. It shares no code with the
    * search's `TopKCollector`, which it serves as the reference for.
    */
  def topK(store: TraceStore, measure: Measure, q: Long, k: Int): Seq[(Long, Double)] = {
    require(k >= 1)
    val (ids, ds) = scores(store, measure, q)
    if (ids.isEmpty) Seq.empty
    else {
      val n = math.min(k, ids.length)
      val sorted = ds.clone()
      java.util.Arrays.sort(sorted)
      val cut = sorted(ids.length - n)
      val above = mutable.ArrayBuffer.empty[(Long, Double)] // fewer than n
      val tied = mutable.ArrayBuilder.make[Long]
      var i = 0
      while (i < ids.length) {
        if (ds(i) > cut) above += ((ids(i), ds(i)))
        else if (ds(i) == cut) tied += ids(i)
        i += 1
      }
      val ties = tied.result()
      java.util.Arrays.sort(ties)
      above.sorted(byRank).toVector ++ ties.iterator.take(n - above.size).map(e => (e, cut))
    }
  }
}
