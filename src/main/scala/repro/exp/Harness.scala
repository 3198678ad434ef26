package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.analysis.Metrics
import repro.core._
import repro.spindex.SpIndex

/** Shared experiment harness used by the bench suites:
  * builds the full pipeline (traces → store → signatures → MinSigTree) and
  * measures pruning effectiveness over sampled queries.
  */
object Harness {

  final case class Built(
      sp: SpIndex,
      store: TraceStore,
      hasher: AdditiveHasher,
      tree: MinSigTree,
      buildMillis: Long,
  )

  // Hash-family seed of every build; fewest base cells of a query.
  val HasherSeed = 17L
  val MinQueryCells = 5

  /** Build store + signatures + MinSigTree from a cells DataFrame.
    * `buildMillis`, the quantity Figure 7 reports, times the `AdditiveHasher`
    * constructor (with its σ table), the signatures and the tree, not the store.
    */
  def build(spark: SparkSession, sp: SpIndex, cells: DataFrame, nh: Int): Built = {
    val store = TraceStore.fromCells(spark, cells, sp)
    val t0 = System.nanoTime()
    val hasher = new AdditiveHasher(sp, nh, HasherSeed)
    val tree = MinSigTree.fromCells(spark, cells, sp, hasher)
    val buildMillis = (System.nanoTime() - t0) / 1000000
    Built(sp, store, hasher, tree, buildMillis)
  }

  /** Deterministic query sample: entities with ≥ `MinQueryCells` base cells
    * spread over a stride, so queries have non-trivial traces but varied behavior.
    */
  def pickQueries(store: TraceStore, n: Int): Seq[Long] = {
    val eligible = store.entities.toSeq.sorted.filter(e => store.sizes(e)(store.sp.m - 1) >= MinQueryCells)
    if (eligible.size <= n) eligible
    else {
      val stride = eligible.size / n
      (0 until n).map(i => eligible(i * stride))
    }
  }

  final case class PeStats(avgPe: Double, avgChecked: Double, avgKthDegree: Double)

  /** Average PE (Definition 5.1) of MinSigTree search over `queries`.
    * Queries run in parallel — the searcher and store are read-only.
    */
  def measurePe(searcher: TopKSearcher, store: TraceStore, queries: Seq[Long], k: Int): PeStats = {
    import java.util.concurrent.Executors
    import scala.concurrent.{Await, ExecutionContext, Future}
    import scala.concurrent.duration.Duration
    val n = store.entities.size
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors())
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val results = Await.result(
        Future.sequence(queries.map { q =>
          Future {
            val r = searcher.search(q, k)
            (Metrics.pe(r.checked, k, n), r.checked.toDouble,
             if (r.hits.size >= k) r.hits(k - 1)._2 else 0.0)
          }
        }),
        Duration.Inf,
      )
      PeStats(
        results.map(_._1).sum / queries.size,
        results.map(_._2).sum / queries.size,
        results.map(_._3).sum / queries.size,
      )
    } finally pool.shutdown()
  }

  /** Markdown-style table printer used by every bench so tables land in
    * bench_output.txt in a uniform, diffable format.
    */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    println()
    println(s"### $title")
    println(fmt(header))
    println(widths.map("-" * _).mkString("|-", "-|-", "-|"))
    rows.foreach(r => println(fmt(r)))
  }

  def f(d: Double): String = f"$d%.4f"
  def e(d: Double): String = f"$d%.1e"
}
