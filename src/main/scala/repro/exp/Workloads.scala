package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.mobility.{ImParams, TraceGen}
import repro.spindex.SpIndex

/** Experiment dataset configurations (§6.1 scaled down; see DESIGN.md §3). */
object Workloads {

  /** SYN defaults: the paper's "normal mobility pattern" parameters
    * (α=0.6, β=0.8, γ=0.2, ζ=1.2, ρ=0.6) with a=2, b=2, m=4.
    */
  val DefaultIm: ImParams = ImParams()
  val DefaultSide = 64
  val DefaultM = 4
  val DefaultA = 2.0
  val DefaultB = 2.0

  final case class SynConfig(
      nEntities: Long = 10000,
      side: Int = DefaultSide,
      m: Int = DefaultM,
      a: Double = DefaultA,
      b: Double = DefaultB,
      im: ImParams = DefaultIm,
      seed: Long = 42,
  )

  final case class RealConfig(
      nEntities: Long = 10000,
      side: Int = DefaultSide,
      horizon: Int = 240,
      seed: Long = 43,
  )

  /** SYN: hierarchical-IM-model traces. */
  def syn(spark: SparkSession, cfg: SynConfig = SynConfig()): (SpIndex, DataFrame) = {
    val sp = SpIndex.build(cfg.side, cfg.m, cfg.a, cfg.b)
    val cells = TraceGen.syn(spark, cfg.side, cfg.nEntities, cfg.im, cfg.seed)
    (sp, cells)
  }

  /** REAL-surrogate: WiFi-hotspot-like traces (proprietary-data stand-in). */
  def real(spark: SparkSession, cfg: RealConfig = RealConfig()): (SpIndex, DataFrame) = {
    val sp = SpIndex.build(cfg.side, DefaultM, DefaultA, DefaultB)
    val cells = TraceGen.realLike(spark, cfg.side, cfg.nEntities, cfg.horizon, seed = cfg.seed)
    (sp, cells)
  }
}
