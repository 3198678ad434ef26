package perfbench

import java.io.{BufferedWriter, FileWriter}
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

import repro.core.{Measure, TraceSource}
import repro.spindex.SpIndex

/** In-memory span log of one traced run. A span has a name, start and end
  * (System.nanoTime), the op it belongs to and the span that caused it.
  * Used by one client thread; written out once when the run ends.
  */
final class Tracer {
  private var n = 0
  private var op = new Array[Int](1024)
  private var parent = new Array[Int](1024)
  private var name = new Array[Int](1024)
  private var start = new Array[Long](1024)
  private var end = new Array[Long](1024)
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]

  /** Op that spans opened from now on belong to. */
  var currentOp: Int = -1
  private var open = -1

  private def grow(): Unit = {
    val c = op.length * 2
    op = java.util.Arrays.copyOf(op, c); parent = java.util.Arrays.copyOf(parent, c)
    name = java.util.Arrays.copyOf(name, c); start = java.util.Arrays.copyOf(start, c)
    end = java.util.Arrays.copyOf(end, c)
  }

  private def nameId(s: String): Int = nameIds.getOrElseUpdate(s, { names += s; names.size - 1 })

  /** Record a finished span under the current op and open span. */
  def add(spanName: String, startNs: Long, endNs: Long): Int = {
    if (n == op.length) grow()
    op(n) = currentOp; parent(n) = open; name(n) = nameId(spanName)
    start(n) = startNs; end(n) = endNs
    n += 1
    n - 1
  }

  def span[T](spanName: String)(body: => T): T = {
    val id = add(spanName, System.nanoTime(), 0L)
    val saved = open
    open = id
    try body
    finally { end(id) = System.nanoTime(); open = saved }
  }

  private def ids(spanName: String, opId: Int): Iterator[Int] =
    nameIds.get(spanName) match {
      case Some(nm) => (0 until n).iterator.filter(i => name(i) == nm && op(i) == opId)
      case None     => Iterator.empty
    }

  def count(spanName: String, opId: Int): Int = ids(spanName, opId).size

  /** Summed duration (ns) of the op's spans of this name. */
  def total(spanName: String, opId: Int): Long = ids(spanName, opId).map(i => end(i) - start(i)).sum

  /** Summed self time (ns): span durations minus their direct children's. */
  def selfTime(spanName: String, opId: Int): Long = {
    val own = ids(spanName, opId).toSet
    val children = (0 until n).iterator.filter(i => own.contains(parent(i))).map(i => end(i) - start(i)).sum
    own.iterator.map(i => end(i) - start(i)).sum - children
  }

  /** Tab-separated rows: span, parent, op, name, start_ns, end_ns. */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = new BufferedWriter(new FileWriter(path.toFile))
    try {
      w.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
      var i = 0
      while (i < n) {
        w.write(s"$i\t${parent(i)}\t${op(i)}\t${names(name(i))}\t${start(i)}\t${end(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

/** `TraceSource` decorator: delegates every call to `inner` and records a
  * span around `degree` (leaf evaluation) and `prefetch` (store fetch).
  */
final class TracingSource(inner: TraceSource, tracer: Tracer) extends TraceSource {
  def sp: SpIndex = inner.sp
  def levelCells(e: Long, level: Int): Array[Long] = inner.levelCells(e, level)
  def contains(e: Long): Boolean = inner.contains(e)
  override def prefetch(es: Iterable[Long]): Unit = tracer.span("prefetch")(inner.prefetch(es))
  override def baseCells(e: Long): Array[(Int, Int)] = inner.baseCells(e)
  override def sizes(e: Long): Array[Int] = inner.sizes(e)
  override def overlaps(a: Long, b: Long): Array[Int] = inner.overlaps(a, b)
  override def degree(measure: Measure, a: Long, b: Long): Double =
    tracer.span("degree")(inner.degree(measure, a, b))
}

/** `Measure` decorator that counts calls. The searcher calls the measure
  * once per priced node (upper bound) and once per evaluated entity.
  */
final class CountingMeasure(inner: Measure) extends Measure {
  val calls = new AtomicLong
  def m: Int = inner.m
  def degree(ov: Array[Int], sa: Array[Int], sb: Array[Int]): Double = {
    calls.incrementAndGet()
    inner.degree(ov, sa, sb)
  }
}

/** Records Spark job and task spans tagged with the op id that the
  * submitting thread set as local property [[JobListener.OpKey]].
  */
final class JobListener extends SparkListener {
  import JobListener.Job

  private val jobs = new ConcurrentHashMap[Int, Job]
  private val stageJob = new ConcurrentHashMap[Int, Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(JobListener.OpKey)))
    tag.foreach { op =>
      jobs.put(e.jobId, Job(op.toInt, e.time, -1L, mutable.ArrayBuffer.empty))
      e.stageIds.foreach(s => stageJob.put(s, e.jobId))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobs.get(e.jobId)).foreach(j => j.synchronized { j.endMs = e.time })

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageJob.get(e.stageId)).flatMap(j => Option(jobs.get(j))).foreach { j =>
      j.synchronized { j.tasks += ((e.taskInfo.launchTime, e.taskInfo.finishTime)) }
    }

  def jobsOf(op: Int): Seq[Job] = {
    import scala.jdk.CollectionConverters._
    jobs.values.asScala.filter(_.op == op).toSeq
  }
}

object JobListener {
  val OpKey = "perfbench.op"

  /** A job of op `op`, with the (launch, finish) times of its tasks. */
  final case class Job(op: Int, startMs: Long, var endMs: Long, tasks: mutable.ArrayBuffer[(Long, Long)])
}
