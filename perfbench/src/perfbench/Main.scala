package perfbench

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession

/** Benchmark entry point (started by `perfbench/run.py`).
  *
  * `--workload W --seed N --seconds S --trace 0|1 --work DIR` runs one
  * workload and prints, as its last stdout line, the result object; the
  * line before it is a record of the host, seeds, sample counts and any
  * failed ops. `--self-test` runs only the benchmark's own tests.
  */
object Main {

  val WorkloadNames = Seq("syn-read", "real-rw")

  /** End-to-end metrics (tracing off), with units. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "query_p50_ms" -> "ms", "query_tail_ms" -> "ms", "query_qps" -> "1/s",
    "write_p50_ms" -> "ms", "write_tail_ms" -> "ms", "scan_p50_ms" -> "ms", "index_heap_mb" -> "MB")

  /** Per-layer metrics (traced run), with units; each is a mean per query
    * or per op, 0 with no samples where a workload skips the layer.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "TraceGen.gen_s" -> "s", "TraceStore.load_ms" -> "ms", "Hashing.init_ms" -> "ms",
    "Signatures.compute_ms" -> "ms", "MinSigTree.assemble_ms" -> "ms", "Cells.levelCells_ms" -> "ms",
    "CachedTraceStore.create_ms" -> "ms", "MinSigTree.nodes" -> "count", "MinSigTree.leaves" -> "count",
    "TopK.ctx_ms" -> "ms", "TopK.price_ms" -> "ms", "TopK.price_ns_per_node" -> "ns",
    "TopK.nodes_priced" -> "count", "TopK.nodes_visited" -> "count", "TopK.entities_checked" -> "count",
    "TopK.pe" -> "ratio", "TraceStore.degree_ms" -> "ms", "TraceStore.degree_calls" -> "count",
    "CachedTraceStore.query_ms" -> "ms", "CachedTraceStore.prefetch_ms" -> "ms", "CachedTraceStore.prefetch_calls" -> "count",
    "CachedTraceStore.hits" -> "count", "CachedTraceStore.misses" -> "count",
    "CachedTraceStore.hit_rate" -> "ratio", "DistributedTopK.query_ms" -> "ms",
    "DistributedTopK.scan_ms" -> "ms", "DistributedTopK.jobs" -> "count",
    "DistributedTopK.job_ms" -> "ms", "DistributedTopK.tasks" -> "count",
    "DistributedTopK.driver_ms" -> "ms", "DistributedTopK.entities_checked" -> "count",
    "TraceStore.ingest_us" -> "us", "Signatures.local_us" -> "us", "MinSigTree.update_us" -> "us",
    "MinSigTree.insert_us" -> "us", "MinSigTree.remove_us" -> "us", "trace.overhead_pct" -> "%")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    SelfTest.run()
    if (args.contains("--self-test")) { println("self-test passed"); return }
    val workload = opts.getOrElse("workload", "")
    require(WorkloadNames.contains(workload), s"unknown workload '$workload'; one of ${WorkloadNames.mkString(", ")}")
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toInt
    val traced = opts("trace") == "1"
    val work = Paths.get(opts("work")).toAbsolutePath
    Files.createDirectories(work)

    val spark = SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors()}]")
      .appName(s"perfbench-$workload")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", Settings.ShufflePartitions.toString)
      // No asynchronous broadcast clean-up between the heap probes of a set-up.
      .config("spark.cleaner.referenceTracking", "false")
      .getOrCreate()
    try {
      val run = new Run(spark, workload, seed, seconds, work)
      if (traced) run.trace() else run.endToEnd()
      run.close()
      println(Json.render(record(spark, run, traced)))
      println(Json.render(result(run, traced)))
    } finally spark.stop()
  }

  private def metric(v: Double, unit: String) = Seq("value" -> v, "unit" -> unit)

  private def result(run: Run, traced: Boolean): Seq[(String, Any)] = {
    val values: Map[String, Double] =
      if (traced) PerLayer.map { case (n, _) => n -> run.layer.get(n).map(xs => Stats.mean(xs.toSeq)).getOrElse(0.0) }.toMap
      else Map(
        "setup_s" -> Stats.median(run.setupS.toSeq),
        "query_p50_ms" -> Stats.median(run.queryMs.toSeq),
        "query_tail_ms" -> Stats.tail(run.queryMs.toSeq).value,
        "query_qps" -> run.qps,
        "write_p50_ms" -> Stats.median(run.writeMs.toSeq),
        "write_tail_ms" -> Stats.tail(run.writeMs.toSeq).value,
        "scan_p50_ms" -> Stats.median(run.scanMs.toSeq),
        "index_heap_mb" -> run.indexHeapMb,
      )
    val units = if (traced) PerLayer else EndToEnd
    Seq(
      "correct" -> (run.gate.failed == 0),
      "attempted" -> run.gate.attempted,
      "failed" -> run.gate.failed,
      "metrics" -> units.map { case (n, u) => n -> metric(values(n), u) },
    )
  }

  /** Host, seeds, sample counts, tail percentiles, failed ops and exact
    * answers whose tie order differs from brute force.
    */
  private def record(spark: SparkSession, run: Run, traced: Boolean): Seq[(String, Any)] = {
    def tail(xs: Seq[Double]) =
      if (xs.size <= Stats.TailBeyond) Seq("n" -> xs.size)
      else {
        val t = Stats.tail(xs)
        Seq("percentile" -> t.percentile, "n" -> t.n)
      }
    Seq(
      "record" -> run.workload,
      "trace" -> traced,
      "host" -> Seq(
        "nproc" -> run.nproc,
        "jvm" -> System.getProperty("java.version"),
        "spark" -> spark.version,
        "driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
        "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      ),
      "data" -> Seq(
        "entities" -> Settings.NEntities, "n_h" -> Settings.Nh, "hasher_seed" -> Settings.HasherSeed,
        "workload_seed" -> run.seed, "dataset_seed" -> run.seeds.dataset,
        "donor_seed" -> run.seeds.donor, "stream_seed" -> run.seeds.stream,
      ),
      "samples" -> (
        if (traced) run.layer.map { case (n, xs) => n -> xs.size }.toSeq
        else Seq(
          "setup" -> run.setupS.size, "query" -> run.queryMs.size, "write" -> run.writeMs.size,
          "scan" -> run.scanMs.size, "qps_queries" -> run.qpsQueries,
          "query_tail" -> tail(run.queryMs.toSeq), "write_tail" -> tail(run.writeMs.toSeq),
        )),
      "ops_failed_share" -> run.gate.failedShare,
      "failures" -> run.gate.failureList.map { case (id, why) => Seq("op" -> id, "cause" -> why) },
      "tie_order_share" -> run.gate.tieOrderShare,
      "tie_order" -> run.gate.tieOrderList.map { case (id, why) => Seq("op" -> id, "difference" -> why) },
    )
  }
}

/** Minimal JSON rendering: a non-empty sequence of pairs is an object, any
  * other sequence an array; strings, numbers and booleans as usual.
  */
object Json {
  def render(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int               => n.toString
    case n: Long              => n.toString
    case kv: Seq[_] if kv.nonEmpty && kv.forall(_.isInstanceOf[(_, _)]) =>
      kv.map { case (k, x) => s"${quote(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.map(render).mkString("[", ", ", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}
