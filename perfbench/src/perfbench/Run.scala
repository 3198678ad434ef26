package perfbench

import java.nio.file.Path
import java.util.SplittableRandom
import java.util.concurrent.{Executors, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import scala.collection.mutable

import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{asc, desc}

import repro.baseline.BruteForce
import repro.core._
import repro.storage.CachedTraceStore

sealed trait Op { def id: Int }
final case class Query(id: Int, q: Long, k: Int) extends Op
final case class Write(id: Int, kind: String, e: Long, base: Array[(Int, Int)]) extends Op

/** One benchmark run of one workload. The constructor generates the inputs
  * and performs the timed set-ups; `endToEnd` or `trace` then runs the ops.
  *
  * `syn-read`: SYN data, read-only queries from 1 client, then from `nproc`
  * clients, then a batch of writes. `real-rw`: REAL-surrogate data, 1
  * client, every 5th op a write. The traced run of `syn-read` also measures,
  * on the same data, the cached-disk path (Top-1) and the Spark path (Top-10).
  */
final class Run(spark: SparkSession, val workload: String, val seed: Long, seconds: Int, workDir: Path) {
  import Settings._

  private val real = workload == "real-rw"
  val seeds: Seeds = Seeds(seed)
  val gate = new Gate
  val nproc: Int = Runtime.getRuntime.availableProcessors()

  /** Per-layer samples, reported as their mean with the sample count. */
  val layer: mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]] = mutable.LinkedHashMap.empty
  private def note(name: String, v: Double): Unit = layer.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  private val born = System.nanoTime()
  /** Progress on stderr, with seconds since the run started. */
  private def progress(what: String): Unit =
    Console.err.println(f"[perfbench $workload ${(System.nanoTime() - born) / 1e9}%6.1fs] $what")

  private def timeNs[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val v = body
    (v, System.nanoTime() - t0)
  }

  // ---- inputs (not set-up) ----
  private val ((sp, cells), genNs) = timeNs(Inputs.cells(spark, real, seeds.dataset))
  note("TraceGen.gen_s", genNs / 1e9)
  private val donors = Inputs.donors(spark, real, seeds.donor)
  private val measure: Measure = AdmMeasure(sp.m, 1, 1)
  progress(f"inputs generated in ${genNs / 1e9}%.1f s")

  // ---- set-up, repeated; the last repetition is kept ----
  var mem: TraceStore = _
  var hasher: AdditiveHasher = _
  var tree: MinSigTree = _
  val setupS: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer.empty
  var indexHeapMb: Double = 0.0
  private val phaseMs = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]

  private def usedHeapAfterGc(): Long = {
    val rt = Runtime.getRuntime
    (0 until 2).map { _ => System.gc(); rt.totalMemory - rt.freeMemory }.min
  }

  /** The index build from the materialised cells. Garbage collection for
    * the heap probes runs between the timed phases.
    */
  private def setupOnce(last: Boolean): Unit = {
    mem = null; hasher = null; tree = null
    System.gc()
    var total = 0.0
    def phase[T](name: String)(body: => T): T = {
      val (v, ns) = timeNs(body)
      phaseMs.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += ns / 1e6
      total += ns / 1e9
      v
    }
    mem = phase("TraceStore.load_ms")(TraceStore.fromCells(spark, cells, sp))
    hasher = phase("Hashing.init_ms")(new AdditiveHasher(sp, Nh, HasherSeed))
    val sigs = phase("Signatures.compute_ms")(Signatures.compute(spark, cells, sp, hasher).collect())
    val heap0 = if (last) usedHeapAfterGc() else 0L
    tree = phase("MinSigTree.assemble_ms") {
      val t = new MinSigTree(sp, Nh)
      sigs.foreach(s => t.insert(s.entity, s.sig))
      t
    }
    if (last) indexHeapMb = (usedHeapAfterGc() - heap0) / 1048576.0
    java.lang.ref.Reference.reachabilityFence(sigs)
    setupS += total
    progress(f"set-up ${setupS.size}: $total%.2f s")
  }

  (1 to SetupReps).foreach(r => setupOnce(r == SetupReps))
  phaseMs.foreach { case (n, ms) => note(n, Stats.median(ms.toSeq)) }
  note("MinSigTree.nodes", tree.nodeCount)
  note("MinSigTree.leaves", tree.leafCount)

  // ---- op stream ----
  private val rng = new SplittableRandom(seeds.stream)
  private val kPhase = rng.nextInt(Ks.size)
  private val entities = new Pool
  private val eligible = new Pool
  mem.entities.toSeq.sorted.foreach { e =>
    entities.add(e)
    if (mem.sizes(e)(sp.m - 1) >= MinCells) eligible.add(e)
  }
  private var opCount = 0
  private var queryCount = 0
  private var newIds = NEntities

  private def nextId(): Int = { opCount += 1; opCount - 1 }

  /** A query drawn uniformly from the current eligible entities; `k`
    * cycles through 1/10/50 unless fixed.
    */
  private def nextQuery(fixedK: Option[Int] = None): Query = {
    val k = fixedK.getOrElse(Ks((kPhase + queryCount) % Ks.size))
    queryCount += 1
    Query(nextId(), eligible.draw(rng), k)
  }

  /** Write kinds in blocks of 10: exactly 5 updates, 3 inserts and 2
    * removals, in seeded order. Exact shares keep the write median from
    * jumping between the insert and update latencies, which meet at 50%.
    */
  private val kinds = mutable.Queue.empty[String]

  private def nextWrite(): Write = {
    if (kinds.isEmpty) {
      val block = mutable.ArrayBuffer.fill(5)("update") ++ Seq.fill(3)("insert") ++ Seq.fill(2)("remove")
      for (i <- block.indices.reverse) { val j = rng.nextInt(i + 1); val t = block(i); block(i) = block(j); block(j) = t }
      kinds ++= block
    }
    val donor = donors(rng.nextInt(donors.size))
    kinds.dequeue() match {
      case "update" => Write(nextId(), "update", entities.draw(rng), donor)
      case "insert" => newIds += 1; Write(nextId(), "insert", newIds, donor)
      case _        => Write(nextId(), "remove", entities.draw(rng), null)
    }
  }

  /** Next op: on `real-rw` every 5th op is a write, otherwise a query. */
  private def nextOp(): Op = if (real && opCount % 5 == 4) nextWrite() else nextQuery()

  // ---- queries ----
  private var searcher = new TopKSearcher(tree, mem, hasher, measure)

  /** Driver brute force over the current in-memory store: the scan the
    * index is measured against, and the exact reference.
    */
  private def bruteForce(q: Long, k: Int): Seq[(Long, Double)] = BruteForce.topK(mem, measure, q, k)

  /** The true degree of `e` for query `q` in the current in-memory store. */
  private def degreeOf(q: Long)(e: Long): Option[Double] =
    if (e != q && mem.contains(e)) Some(mem.degree(measure, e, q)) else None

  private def tag(q: Query) = s"op${q.id}:top${q.k}(${q.q})"

  val queryMs: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer.empty
  val writeMs: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer.empty
  val scanMs: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer.empty
  var qps: Double = 0.0
  var qpsQueries: Int = 0
  private val refs = mutable.HashMap.empty[(Long, Int), Seq[(Long, Double)]]

  /** One query op: the index search (timed), the driver scan on the same
    * query (timed, kept as reference) and the exactness check. Returns the
    * result and search latency when the result is exact.
    */
  private def runQuery(op: Query, search: => TopKResult): Option[(TopKResult, Double)] = {
    val res = gate.attempt(tag(op))(search)
    val (ref, ns) = timeNs(bruteForce(op.q, op.k))
    scanMs += ns / 1e6
    if (!real) refs((op.q, op.k)) = ref
    res.filter { case (r, _) => gate.exact(tag(op), r.hits, ref, degreeOf(op.q)) }
  }

  // ---- writes ----
  /** The write path: rollup and store entry swap, local signature, then
    * the tree's update, insert or remove.
    */
  private def applyWrite(w: Write, tracer: Option[Tracer]): Unit = {
    def span[T](name: String)(body: => T): T = tracer.fold(body)(_.span(name)(body))
    if (w.kind == "remove") {
      span("TraceStore.ingest") { mem = new TraceStore(sp, mem.data - w.e) }
      span("MinSigTree.remove")(tree.remove(w.e))
    } else {
      span("TraceStore.ingest") { mem = new TraceStore(sp, mem.data.updated(w.e, Cells.rollup(w.base, sp))) }
      val sig = span("Signatures.local")(Signatures.computeLocal(w.base, sp, hasher))
      if (w.kind == "update") span("MinSigTree.update")(tree.update(w.e, sig))
      else span("MinSigTree.insert")(tree.insert(w.e, sig))
    }
    searcher = new TopKSearcher(tree, mem, hasher, measure)
  }

  /** Keep the draw pools in step with a write that succeeded. */
  private def track(w: Write): Unit =
    if (w.kind == "remove") { entities.remove(w.e); eligible.remove(w.e) }
    else {
      entities.add(w.e)
      if (w.base.distinct.length >= MinCells) eligible.add(w.e) else eligible.remove(w.e)
    }

  private def runWrite(w: Write, tracer: Option[Tracer]): Option[Double] = {
    val r = gate.attempt(s"op${w.id}:${w.kind}(${w.e})")(applyWrite(w, tracer))
    r.foreach(_ => track(w))
    r.map(_._2)
  }

  private def runOp(op: Op): Unit = op match {
    case q: Query => runQuery(q, searcher.search(q.q, q.k)).foreach { case (_, ms) => queryMs += ms }
    case w: Write => runWrite(w, None).foreach(writeMs += _)
  }

  /** Untimed ops that let the JIT compile the query path (and, on
    * `real-rw`, the write path) before timing starts.
    */
  private def warmUp(): Unit = {
    (0 until WarmQueries).foreach(_ => runOp(nextQuery()))
    if (real) (0 until WarmWrites).foreach(_ => runWrite(nextWrite(), None))
    queryMs.clear(); writeMs.clear(); scanMs.clear()
  }

  /** `syn-read`'s writes, after its read-only query phases. The untimed
    * writes and the collection let the write path compile and clear the
    * `nproc` phase's garbage first. An untimed driver scan before each
    * timed write spreads the writes over seconds, among reads as on
    * `real-rw`: in a tight loop they took under a second, and their tail
    * moved with the host by up to a third between runs of one seed.
    */
  private def writeBatch(traced: Boolean): Unit = {
    (0 until BatchWarmWrites).foreach(_ => runWrite(nextWrite(), None))
    System.gc()
    (0 until BatchWrites).foreach { _ =>
      bruteForce(eligible.draw(rng), Ks(1))
      val w = nextWrite()
      if (traced) tracedWrite(w) else runWrite(w, None).foreach(writeMs += _)
    }
    if (tree.size != mem.data.size)
      gate.fail("write-batch", s"index holds ${tree.size} entities, store ${mem.data.size}")
  }

  /** End-to-end run, tracing off. */
  def endToEnd(): Unit = {
    warmUp()
    val deadline = System.nanoTime() + (if (real) 1.0 else 0.6) * seconds * 1e9
    val executed = mutable.ArrayBuffer.empty[Query]
    var writes = 0
    while (System.nanoTime() < deadline || executed.size < MinSamples || (real && writes < MinSamples)) {
      val op = nextOp()
      runOp(op)
      op match { case q: Query => executed += q; case _ => writes += 1 }
    }
    progress(s"${queryMs.size} queries and ${writeMs.size} writes timed from 1 client")
    if (real) {
      qps = 1000.0 / Stats.mean(queryMs.toSeq)
      qpsQueries = queryMs.size
    } else {
      throughput(executed.toIndexedSeq, 0.4 * seconds)
      progress(s"$qpsQueries queries from $nproc clients")
      writeBatch(traced = false)
    }
  }

  /** `nproc` closed-loop clients over the latency phase's queries, each
    * result checked against that phase's reference.
    */
  private def throughput(queries: IndexedSeq[Query], secs: Double): Unit = {
    val next = new AtomicInteger
    val done = new AtomicInteger
    val pool = Executors.newFixedThreadPool(nproc)
    val t0 = System.nanoTime()
    val deadline = t0 + (secs * 1e9).toLong
    val lastEnd = new AtomicLong(t0)
    val shared = searcher
    (0 until nproc).foreach { _ =>
      pool.submit(new Runnable {
        def run(): Unit = while (System.nanoTime() < deadline || next.get < MinSamples) {
          val q = queries(next.getAndIncrement() % queries.size)
          val id = s"${tag(q)}@client"
          gate.attempt(id)(shared.search(q.q, q.k)).foreach { case (r, _) =>
            if (gate.exact(id, r.hits, refs((q.q, q.k)), degreeOf(q.q))) done.incrementAndGet()
          }
          lastEnd.accumulateAndGet(System.nanoTime(), math.max)
        }
      })
    }
    pool.shutdown()
    require(pool.awaitTermination(120, TimeUnit.SECONDS), "throughput clients did not finish")
    qpsQueries = done.get
    qps = done.get / ((lastEnd.get - t0) / 1e9)
  }

  // ---- traced run ----
  private val tracer = new Tracer

  /** A driver search through the decorators: spans for `degree` and
    * `prefetch`, and a count of measure calls.
    */
  private def tracedSearch(q: Query, store: TraceSource): (Option[(TopKResult, Double)], Long) = {
    tracer.currentOp = q.id
    val cm = new CountingMeasure(measure)
    val decorated = new TopKSearcher(tree, new TracingSource(store, tracer), hasher, cm)
    (runQuery(q, tracer.span("search")(decorated.search(q.q, q.k))), cm.calls.get)
  }

  private def tracedQuery(q: Query): Option[(TopKResult, Double)] = {
    val ctxNs = timeNs(QueryContext(mem, hasher, measure, q.q))._2
    val (r, calls) = tracedSearch(q, mem)
    r.foreach { case (res, _) =>
      val degreeCalls = tracer.count("degree", q.id)
      val priced = calls - degreeCalls
      val priceNs = tracer.selfTime("search", q.id)
      note("TopK.ctx_ms", ctxNs / 1e6)
      note("TopK.price_ms", priceNs / 1e6)
      note("TopK.price_ns_per_node", if (priced > 0) priceNs.toDouble / priced else 0.0)
      note("TopK.nodes_priced", priced.toDouble)
      note("TopK.nodes_visited", res.nodesVisited)
      note("TopK.entities_checked", res.checked)
      note("TopK.pe", res.pe(mem.data.size))
      note("TraceStore.degree_ms", tracer.total("degree", q.id) / 1e6)
      note("TraceStore.degree_calls", degreeCalls)
    }
    r
  }

  private def tracedWrite(w: Write): Unit = {
    tracer.currentOp = w.id
    runWrite(w, Some(tracer)).foreach { _ =>
      note("TraceStore.ingest_us", tracer.total("TraceStore.ingest", w.id) / 1e3)
      if (w.kind != "remove") note("Signatures.local_us", tracer.total("Signatures.local", w.id) / 1e3)
      val opName = s"MinSigTree.${w.kind}"
      note(s"${opName}_us", tracer.total(opName, w.id) / 1e3)
    }
  }

  /** Ops run untraced, then traced; a fixed number so that counts repeat. */
  private val TraceOps = if (real) 40 else 24
  private val DiskQueries = 6
  private val SparkQueries = 4

  /** Per-layer run: untraced ops, then traced ops (the same queries on
    * `syn-read`, the next ops of the stream on `real-rw`). On `syn-read` the
    * decorated search must return the undecorated result exactly, and the
    * cached-disk and Spark paths are traced next.
    */
  def trace(): Unit = {
    warmUp()
    val plain = (0 until TraceOps).map(_ => nextOp())
    val plainRes = mutable.HashMap.empty[Int, TopKResult]
    val plainMs = mutable.ArrayBuffer.empty[Double]
    plain.foreach {
      case q: Query =>
        runQuery(q, searcher.search(q.q, q.k)).foreach { case (r, ms) => plainRes(q.id) = r; plainMs += ms }
      case w: Write => runWrite(w, None)
    }
    val traced = if (real) (0 until TraceOps).map(_ => nextOp()) else plain
    val tracedMs = mutable.ArrayBuffer.empty[Double]
    traced.foreach {
      case q: Query => tracedQuery(q).foreach { case (r, ms) =>
        tracedMs += ms
        plainRes.get(q.id).filter(_ != r).foreach { p =>
          gate.fail(s"${tag(q)}@traced", s"decorated search returned $r, undecorated $p")
        }
      }
      case w: Write => tracedWrite(w)
    }
    note("trace.overhead_pct", (Stats.mean(tracedMs.toSeq) / Stats.mean(plainMs.toSeq) - 1) * 100)
    progress(s"traced ${traced.size} ops")
    if (!real) {
      diskPath()
      sparkPath()
      writeBatch(traced = true)
    }
    tracer.write(workDir.getParent.resolve("traces").resolve(s"$workload-seed$seed.tsv"))
  }

  /** Top-1 over `CachedTraceStore` holding 25% of the entities, on its
    * default simulated device, after a fixed warm-up prefix of queries.
    */
  private def diskPath(): Unit = {
    val (cached, createNs) = timeNs(CachedTraceStore.create(spark, cells, sp,
      workDir.resolve("records.bin").toString, (NEntities * DiskShare).toInt))
    note("CachedTraceStore.create_ms", createNs / 1e6)
    (0 until 2).foreach { _ =>
      val q = nextQuery(Some(1))
      runQuery(q, new TopKSearcher(tree, cached, hasher, measure).search(q.q, q.k))
    }
    (0 until DiskQueries).foreach { _ =>
      val q = nextQuery(Some(1))
      val (h0, m0) = (cached.hits, cached.misses)
      tracedSearch(q, cached)._1.foreach { case (_, ms) =>
        val (h, m) = (cached.hits - h0, cached.misses - m0)
        note("CachedTraceStore.query_ms", ms)
        note("CachedTraceStore.prefetch_ms", tracer.total("prefetch", q.id) / 1e6)
        note("CachedTraceStore.prefetch_calls", tracer.count("prefetch", q.id))
        note("CachedTraceStore.hits", h.toDouble)
        note("CachedTraceStore.misses", m.toDouble)
        note("CachedTraceStore.hit_rate", if (h + m > 0) h.toDouble / (h + m) else 0.0)
      }
    }
    progress(s"traced $DiskQueries cached-disk queries")
  }

  /** Top-10 with `DistributedTopK.search` over the cached level cells,
    * beside the Spark scan (`BruteForce.degreesDf`, then top-k).
    */
  private def sparkPath(): Unit = {
    val (levelCells, lcNs) = timeNs {
      val lc = Cells.levelCells(spark, cells, sp).cache()
      lc.count()
      lc
    }
    note("Cells.levelCells_ms", lcNs / 1e6)
    val listener = new JobListener
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    def sparkScan(q: Query): Unit = {
      import spark.implicits._
      BruteForce.degreesDf(spark, levelCells, q.q, measure, sp)
        .orderBy(desc("degree"), asc("entity")).limit(q.k).as[(Long, Double)].collect()
    }
    // One more query than reported: the first warms Spark's code generation.
    val results = (0 to SparkQueries).map { _ =>
      val q = nextQuery(Some(10))
      tracer.currentOp = q.id
      sc.setLocalProperty(JobListener.OpKey, q.id.toString)
      val r = try runQuery(q, tracer.span("search")(DistributedTopK.search(spark, tree, levelCells, hasher, measure, q.q, q.k)))
      finally sc.setLocalProperty(JobListener.OpKey, null)
      val scanNs = timeNs(sparkScan(q))._2
      (q, r, scanNs)
    }
    PerfbenchBus.drain(sc)
    sc.removeSparkListener(listener)
    val toTracerNs = System.nanoTime() - System.currentTimeMillis() * 1000000L
    results.drop(1).foreach { case (q, r, scanNs) =>
      r.foreach { case (res, ms) =>
        val jobs = listener.jobsOf(q.id)
        val jobMs = jobs.map(j => (j.endMs - j.startMs).toDouble).sum
        note("DistributedTopK.query_ms", ms)
        note("DistributedTopK.scan_ms", scanNs / 1e6)
        note("DistributedTopK.jobs", jobs.size)
        note("DistributedTopK.job_ms", jobMs)
        note("DistributedTopK.tasks", jobs.map(_.tasks.size).sum)
        note("DistributedTopK.driver_ms", ms - jobMs)
        note("DistributedTopK.entities_checked", res.checked)
        tracer.currentOp = q.id
        def ns(ms: Long) = ms * 1000000L + toTracerNs
        jobs.foreach { j =>
          tracer.add("spark.job", ns(j.startMs), ns(j.endMs))
          j.tasks.foreach { case (launch, finish) => tracer.add("spark.task", ns(launch), ns(finish)) }
        }
      }
    }
    levelCells.unpersist(blocking = true)
    progress(s"traced $SparkQueries Spark queries")
  }

  def close(): Unit = cells.unpersist(blocking = true)
}
