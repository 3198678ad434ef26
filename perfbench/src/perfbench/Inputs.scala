package perfbench

import java.util.SplittableRandom

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.exp.Workloads
import repro.mobility.{ImParams, TraceGen}
import repro.spindex.SpIndex

/** Settings shared by every workload (the bench suites' `BenchData` scale). */
object Settings {
  val NEntities = 8000L
  val Side = 64
  val Horizon = 240
  val Nh = 256
  val HasherSeed = 17L
  val Ks = IndexedSeq(1, 10, 50)
  /** Query eligibility: at least this many base cells (`Harness.pickQueries`). */
  val MinCells = 5
  /** Fixed, not per host, so the collect order and thus the tree repeat. */
  val ShufflePartitions = 8
  val SetupReps = 5
  /** Fewest timed samples of each kind; the tail rule needs 11. */
  val MinSamples = 11
  /** Donor traces that writes draw their new trace from. */
  val NDonors = 2000
  /** Untimed queries before timed ones, so the query path is compiled. */
  val WarmQueries = 20
  /** Untimed writes before timed ones, so the write path is compiled. */
  val WarmWrites = 200
  /** `syn-read` writes after its query phases: untimed, then timed. */
  val BatchWarmWrites = 1000
  val BatchWrites = 400
  /** Cache capacity of the traced cached-disk path, as a share of the entities. */
  val DiskShare = 0.25
}

/** Seeds derived from the workload seed: datasets, query and write stream. */
final case class Seeds(workload: Long) {
  private val r = new SplittableRandom(workload)
  val dataset: Long = r.nextInt(1 << 30).toLong
  val donor: Long = r.nextInt(1 << 30).toLong
  val stream: Long = r.nextInt(1 << 30).toLong
}

/** Ids drawn uniformly, with removal in O(1). */
final class Pool {
  private val ids = mutable.ArrayBuffer.empty[Long]
  private val at = mutable.HashMap.empty[Long, Int]

  def size: Int = ids.size
  def add(e: Long): Unit = if (!at.contains(e)) { at(e) = ids.size; ids += e }
  def remove(e: Long): Unit = at.remove(e).foreach { i =>
    val last = ids.remove(ids.size - 1)
    if (i < ids.size) { ids(i) = last; at(last) = i }
  }
  def draw(rng: SplittableRandom): Long = {
    require(ids.nonEmpty, "no entity left to draw")
    ids(rng.nextInt(ids.size))
  }
}

/** Generated inputs. Trace generation is not set-up: it stands in for data
  * that already exists when the index is built.
  */
object Inputs {
  val Im: ImParams = ImParams(horizon = Settings.Horizon)

  /** SYN or REAL-surrogate cells `(entity, t, loc)`, cached and counted. */
  def cells(spark: SparkSession, real: Boolean, seed: Long, n: Long = Settings.NEntities): (SpIndex, DataFrame) = {
    val (sp, df) =
      if (real) Workloads.real(spark, Workloads.RealConfig(nEntities = n, side = Settings.Side,
        horizon = Settings.Horizon, seed = seed))
      else Workloads.syn(spark, Workloads.SynConfig(nEntities = n, side = Settings.Side, im = Im, seed = seed))
    val cached = df.cache()
    cached.count()
    (sp, cached)
  }

  /** Donor base traces for writes, from a second dataset of the same kind. */
  def donors(spark: SparkSession, real: Boolean, seed: Long): IndexedSeq[Array[(Int, Int)]] =
    if (real) {
      import spark.implicits._
      val (_, df) = cells(spark, real = true, seed, Settings.NDonors.toLong)
      val rows = df.select("entity", "t", "loc").as[(Long, Int, Int)].collect()
      df.unpersist()
      rows.groupBy(_._1).toIndexedSeq.sortBy(_._1).map(_._2.map(r => (r._2, r._3)))
    } else
      (0 until Settings.NDonors).map(e => TraceGen.cellsFor(e.toLong, Settings.Side, Im, seed, groupSize = 8))
}
