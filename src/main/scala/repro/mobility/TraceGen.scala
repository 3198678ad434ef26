package repro.mobility

import java.util.SplittableRandom

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.SplitMix.mix

/** Spark-side digital-trace generators.
  *
  * Both generators return a DataFrame of base ST-cells
  * `(entity: Long, t: Int, loc: Int)` — the raw-trace representation used by
  * the whole pipeline (§3.1). Deterministic in `(seed, nEntities, params)`.
  *
  * SYN pipeline (§6.1 + DESIGN.md §3): *movement* comes from the
  * hierarchical IM model, but a digital trace records *detections*, not
  * continuous presence — a device leaves a trace only when it is seen by
  * some sensor. Two realism ingredients (both essential for the paper's
  * pruning regime of sparse, variable-length, partially-duplicated traces):
  *
  *  - **detection sampling**: each entity has a detection rate
  *    `pDetect ∈ [0.15, 0.55]`; a stay enters the trace iff a shared
  *    per-stay coin falls below it (shared coins make co-moving entities'
  *    detected subsets coincide rather than merely overlap in expectation);
  *  - **companion groups**: entities come in groups of `groupSize`
  *    (devices carried together, families): all members follow the group
  *    leader's stays but member `r` replaces a `r/groupSize` fraction of
  *    them (again by shared coin) with its own independent movement —
  *    producing a clean gradient of association degrees within a group,
  *    the "closely associated entities" the paper's queries look for.
  */
object TraceGen {

  private def unitDouble(z: Long): Double = (z >>> 11).toDouble / (1L << 53).toDouble

  /** Fraction of stays redirected to shared anchor events (offices,
    * malls, venues) — the source of cross-group co-occurrence that gives
    * the association-degree distribution its continuous tail (Figure 10).
    */
  val PEvent = 0.3

  /** A shared anchor event: a popular (time, place, duration) attended by
    * many entities. Event `rank` is drawn zipf-like so a few events are
    * very popular.
    */
  private def eventStay(seed: Long, side: Int, horizon: Int, coin: Double): Stay = {
    val nEvents = math.max(8, side * side / 4)
    // Inverse-CDF zipf(1.0) over event ranks.
    val rank = math.min(nEvents - 1, (math.pow(nEvents + 1.0, coin) - 1.0).toInt)
    val z = mix(seed ^ 0x0e0e0e0eL, rank)
    val t = ((z >>> 8) % math.max(1, horizon - 6)).toInt
    val dur = 1 + ((z >>> 40) % 6).toInt
    val loc = ((z >>> 20) % (side * side)).toInt
    Stay(t, dur, loc)
  }

  /** Occupied base unit per time unit: stays (with anchor-event
    * redirection by shared coins keyed on `key`) expanded to a timeline.
    */
  private def timeline(stays: Array[Stay], key: Long, side: Int, seed: Long, horizon: Int): (Array[Int], Array[Boolean]) = {
    val tl = new Array[Int](horizon)
    val ev = new Array[Boolean](horizon)
    stays.zipWithIndex.foreach { case (s0, i) =>
      val a = unitDouble(mix(seed ^ 0x0a0a0a0aL, key, i))
      val b = unitDouble(mix(seed ^ 0x0b0b0b0bL, key, i))
      val isEvent = a < PEvent
      val s = if (isEvent) eventStay(seed, side, horizon, b) else s0
      // An event keeps the original slot's span but relocates it (and, for
      // the event's own span, its time) — both contribute co-occurrence.
      def cover(span: Stay): Unit = {
        var j = 0
        while (j < span.dt && span.t + j < horizon) { tl(span.t + j) = s.loc; ev(span.t + j) = isEvent; j += 1 }
      }
      cover(s0); cover(s)
    }
    (tl, ev)
  }

  /** Detected base cells of one entity under the SYN model.
    *
    * Detection is per base temporal unit (a device is probed each unit of
    * time it spends near a sensor), with a *shared* per-(group, t)
    * detection coin against a per-entity rate — so trace length is
    * `≈ pDetect · horizon` regardless of stay durations (the paper's §6.4
    * flatness in β), detected subsets of companions nest, and length skew
    * follows the cubed-uniform rate distribution.
    */
  def cellsFor(e: Long, side: Int, p: ImParams, seed: Long, groupSize: Int): Array[(Int, Int)] = {
    require(groupSize >= 1)
    val gid = e / groupSize
    val role = (e % groupSize).toInt
    val noise = if (groupSize == 1) 0.0 else role.toDouble / groupSize
    val rng = new SplittableRandom(mix(seed ^ 0x5ca1ab1eL, e))
    // Skewed detection rates: most devices are rarely detected (short
    // traces), a few often — the trace-length skew of real sensing data.
    val u0 = rng.nextDouble()
    val pDetect = 0.02 + 0.25 * u0 * u0 * u0

    val (leaderTl, leaderEv) =
      timeline(ImModel.simulateStays(gid * groupSize, side, p, seed), gid, side, seed, p.horizon)
    // Non-leaders follow their own movement for a `noise` fraction of time
    // units (shared coin u => nested across roles).
    val (ownTl, ownEv) =
      if (role == 0) (leaderTl, leaderEv)
      else timeline(ImModel.simulateStays(e, side, p, seed ^ 0x00a11ceL), e, side, seed, p.horizon)
    // Venues hosting events are instrumented: detection there is far more
    // likely than out in the open, so traces concentrate on venues — the
    // reason real digital traces overlap at popular places.
    val pEventDetect = math.min(0.85, 6 * pDetect)
    val out = mutable.ArrayBuffer.empty[(Int, Int)]
    var t = 0
    while (t < p.horizon) {
      val u = unitDouble(mix(seed ^ 0x0c0ffeeL, gid, t))
      val w = unitDouble(mix(seed ^ 0x7ea7ab1eL, gid, t))
      val follow = u >= noise
      val atEvent = if (follow) leaderEv(t) else ownEv(t)
      if (w < (if (atEvent) pEventDetect else pDetect))
        out += ((t, if (follow) leaderTl(t) else ownTl(t)))
      t += 1
    }
    // Guarantee a non-empty trace (an undetected entity is simply absent
    // from the data; keeping one cell keeps entity ids dense for tests).
    if (out.isEmpty) out += ((0, leaderTl(0)))
    out.toArray
  }

  /** Companion-group size of SYN traces. */
  val GroupSize = 8

  /** SYN: detection-sampled traces from the hierarchical IM model. */
  def syn(
      spark: SparkSession,
      side: Int,
      nEntities: Long,
      p: ImParams,
      seed: Long,
  ): DataFrame = {
    import spark.implicits._
    spark
      .range(nEntities)
      .as[Long]
      .mapPartitions { ids =>
        ids.flatMap { e =>
          cellsFor(e, side, p, seed, GroupSize).iterator.map { case (t, loc) => (e, t, loc) }
        }
      }
      .toDF("entity", "t", "loc")
  }

  /** Driver-side (no Spark) SYN cells per entity, for fast unit tests. */
  def synLocal(side: Int, nEntities: Int, p: ImParams, seed: Long,
      groupSize: Int = GroupSize): Map[Long, Array[(Int, Int)]] =
    (0L until nEntities).map(e => e -> cellsFor(e, side, p, seed, groupSize)).toMap

  // REAL-surrogate settings, described at `realLike`.
  val RealSessions = 30
  val RealPHome = 0.6
  val RealZipfExp = 1.0
  val RealBeta = 0.8
  val RealDtMax = 12

  /** REAL-surrogate: WiFi-hotspot-like traces (see DESIGN.md §3).
    *
    * Hotspot popularity is zipf (exponent `RealZipfExp`) over a fixed random
    * permutation of base units; entities come in device *pairs* (same
    * owner): both share a home hotspot and the even-id device's pool of
    * `RealSessions` sessions (a `RealPHome` share at home), the odd-id
    * device drops half of them and adds its own; session durations are
    * power-law (exponent `RealBeta`, at most `RealDtMax`).
    */
  def realLike(
      spark: SparkSession,
      side: Int,
      nEntities: Long,
      horizon: Int,
      seed: Long = 7,
  ): DataFrame = {
    import spark.implicits._
    val nBase = side * side
    // Cumulative zipf weights over popularity ranks, broadcast once.
    val cum = {
      val w = Array.tabulate(nBase)(i => math.pow(i + 1.0, -RealZipfExp))
      val c = new Array[Double](nBase)
      var s = 0.0
      var i = 0
      while (i < nBase) { s += w(i); c(i) = s; i += 1 }
      c
    }
    val bcCum = spark.sparkContext.broadcast(cum)
    spark
      .range(nEntities)
      .as[Long]
      .mapPartitions { ids =>
        val c = bcCum.value
        ids.flatMap { e =>
          val owner = e / 2 // device pairs: 2e and 2e+1 belong to one owner
          val isSecond = (e % 2) == 1
          val rng = new SplittableRandom(mix(seed ^ 0x31f1eeeL, owner))
          def popDraw(): Int = {
            val r = rng.nextDouble() * c(nBase - 1)
            var lo = 0; var hi = nBase - 1
            while (lo < hi) { val mid = (lo + hi) >>> 1; if (c(mid) < r) lo = mid + 1 else hi = mid }
            // Odd multiplier mod a power of two is a bijection: maps rank
            // to a pseudo-random grid cell so popular hotspots are spread out.
            (lo * 0x9E3779B1) & (nBase - 1)
          }
          val home = popDraw()
          // Owner's session pool; each device keeps a nested subset sized
          // by its activity (cubed-uniform => most devices are rarely
          // seen, a few very active — the trace-length skew of real
          // sensing data). Nested shared coins make a pair's kept sets
          // coincide up to the smaller activity, so device pairs are
          // strongly associated.
          val sessions = Array.fill(RealSessions) {
            val loc = if (rng.nextDouble() < RealPHome) home else popDraw()
            val start = rng.nextInt(horizon)
            val dt = ImModel.paretoInt(rng, RealBeta, RealDtMax)
            (loc, start, dt)
          }
          val own = new SplittableRandom(mix(seed ^ 0xdee1ceL, e))
          val a0 = own.nextDouble()
          val act = 0.08 + 0.92 * a0 * a0 * a0
          var picked = sessions.zipWithIndex.collect {
            case (s, j) if unitDouble(mix(seed ^ 0x5e5510eeL, owner, j)) < act => s
          }.toSeq
          // A slice of device-private sessions keeps pairs from being
          // exact duplicates.
          val nOwnExtra = if (isSecond) math.max(1, picked.size / 4) else 0
          picked = picked ++ Seq.fill(nOwnExtra) {
            val loc = if (own.nextDouble() < RealPHome) home else popDraw()
            (loc, own.nextInt(horizon), ImModel.paretoInt(own, RealBeta, RealDtMax))
          }
          if (picked.isEmpty) picked = Seq(sessions(0))
          val seen = mutable.HashSet.empty[Long]
          val out = mutable.ArrayBuffer.empty[(Long, Int, Int)]
          picked.foreach { case (loc, start, dt) =>
            var j = 0
            while (j < dt && start + j < horizon) {
              val t = start + j
              if (seen.add(t.toLong * nBase + loc)) out += ((e, t, loc))
              j += 1
            }
          }
          out.iterator
        }
      }
      .toDF("entity", "t", "loc")
  }
}
