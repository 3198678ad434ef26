package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Order statistics used for every reported timing. */
object Stats {

  /** Highest percentile with at least 10 samples ranked beyond it. */
  final case class Tail(value: Double, percentile: Double, n: Int)

  val TailBeyond = 10

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** The sample at ascending rank `n - 11` (0-based): exactly ten samples
    * rank after it, so it is the `100·(n-10)/n`-th percentile. Needs at
    * least 11 samples.
    */
  def tail(xs: Seq[Double]): Tail = {
    val n = xs.size
    require(n > TailBeyond, s"tail needs more than $TailBeyond samples, got $n")
    Tail(xs.sorted.apply(n - TailBeyond - 1), 100.0 * (n - TailBeyond) / n, n)
  }
}

/** Counts timed ops and the ones that fail. An op fails when it throws or
  * when its result is not an exact Top-k answer; failed ops give no latency
  * sample. Exact answers that order equal degrees other than the reference
  * are counted apart. Safe to use from several client threads.
  */
final class Gate {
  private val attemptedN = new AtomicLong
  private val failures = new ConcurrentLinkedQueue[(String, String)]
  private val tieOrders = new ConcurrentLinkedQueue[(String, String)]

  def attempted: Long = attemptedN.get
  def failed: Int = failures.size
  def failedShare: Double = if (attempted == 0) 0.0 else failed.toDouble / attempted
  /** (op id, cause) of every failed op. */
  def failureList: Seq[(String, String)] = failures.asScala.toSeq
  /** (op id, first difference) of every exact answer whose tie order
    * differs from the reference.
    */
  def tieOrderList: Seq[(String, String)] = tieOrders.asScala.toSeq
  def tieOrderShare: Double = if (attempted == 0) 0.0 else tieOrders.size.toDouble / attempted

  def fail(id: String, cause: String): Unit = failures.add((id, cause))

  /** Run and time one op (milliseconds). Returns None, after counting the
    * failure, when it throws.
    */
  def attempt[T](id: String)(op: => T): Option[(T, Double)] = {
    attemptedN.incrementAndGet()
    val t0 = System.nanoTime()
    try {
      val v = op
      Some((v, (System.nanoTime() - t0) / 1e6))
    } catch {
      case NonFatal(e) => fail(id, s"threw ${e.getClass.getSimpleName}: ${e.getMessage}"); None
    }
  }

  /** Compare a result list with the brute-force reference, ids, ties and
    * zero-degree entries included. A list that differs only in which
    * entities of equal degree it holds, or their order, is exact (the
    * paper's Top-k leaves ties open) and is recorded as a tie-order
    * difference; any other difference counts a failure. `degreeOf` gives
    * an entity's true degree, None for the query or an absent entity.
    */
  def exact(id: String, got: Seq[(Long, Double)], want: Seq[(Long, Double)],
            degreeOf: Long => Option[Double]): Boolean =
    Gate.difference(got, want) match {
      case None => true
      case Some(why) if Gate.sameTopK(got, want, degreeOf) => tieOrders.add((id, why)); true
      case Some(why) => fail(id, why); false
    }
}

object Gate {

  /** Why `got` is not exactly `want`, or None when they are equal. */
  def difference(got: Seq[(Long, Double)], want: Seq[(Long, Double)]): Option[String] =
    if (got == want) None
    else {
      val i = got.zip(want).indexWhere { case (a, b) => a != b } match {
        case -1 => math.min(got.size, want.size)
        case j  => j
      }
      val zeros = if (want.drop(i).exists(_._2 == 0.0) && !got.exists(_._2 == 0.0))
        " (zero-degree entities missing)" else ""
      Some(s"mismatch at rank $i: got ${got.lift(i)} want ${want.lift(i)}; sizes ${got.size}/${want.size}$zeros")
    }

  /** True when `got` has exactly `want`'s degree list, over distinct
    * entities that each have the degree listed: a Top-k answer as exact as
    * `want`, whatever entities of equal degree it chose.
    */
  def sameTopK(got: Seq[(Long, Double)], want: Seq[(Long, Double)], degreeOf: Long => Option[Double]): Boolean =
    got.map(_._2) == want.map(_._2) && got.map(_._1).distinct.size == got.size &&
      got.forall { case (e, d) => degreeOf(e).contains(d) }
}
