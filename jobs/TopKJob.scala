package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Cells, DistributedTopK}
import repro.exp.{Harness, Workloads}
import repro.mobility.ImParams

/** spark-submit entrypoint: answer a top-k query with the distributed
  * scan/prune search and cross-check against the driver search.
  *
  * Usage: TopKJob [nEntities] [nHash] [queryEntity] [k]
  */
object TopKJob {
  def main(args: Array[String]): Unit = {
    val nEntities = if (args.length > 0) args(0).toLong else 8000L
    val nh = if (args.length > 1) args(1).toInt else 128
    val q = if (args.length > 2) args(2).toLong else 0L
    val k = if (args.length > 3) args(3).toInt else 10
    val spark = SparkSession.builder.appName("topk").getOrCreate()
    val (sp, cells) = Workloads.syn(spark, Workloads.SynConfig(
      nEntities = nEntities, im = ImParams(horizon = 240)))
    val built = Harness.build(spark, sp, cells, nh)
    val levelCells = Cells.levelCells(spark, cells, sp).cache()
    val d = repro.core.AdmMeasure(sp.m, 1, 1)

    val dist = DistributedTopK.search(spark, built.tree, levelCells, built.hasher, d, q, k)
    println(s"distributed: checked=${dist.checked} of ${built.tree.size}; " +
      s"PE=${Harness.f(dist.pe(built.tree.size))}")
    dist.hits.foreach { case (e, deg) => println(f"  entity $e%8d degree $deg%.6f") }

    val driver = new repro.core.TopKSearcher(built.tree, built.store, built.hasher, d).search(q, k)
    require(dist.hits.size == driver.hits.size,
      s"distributed search returned ${dist.hits.size} hits, driver ${driver.hits.size}")
    require(
      dist.hits.map(_._2).zip(driver.hits.map(_._2)).forall { case (a, b) => math.abs(a - b) < 1e-9 },
      "distributed and driver results disagree")
    println("driver search agrees.")
    spark.stop()
  }
}
