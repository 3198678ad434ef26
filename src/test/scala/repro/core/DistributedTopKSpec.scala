package repro.core

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike

import repro.SparkSpec
import repro.baseline.BruteForce
import repro.mobility.TraceGen
import repro.spindex.SpIndex

/** The distributed scan/prune search path (§4.2 on Spark): equivalence with
  * the driver search and with brute force.
  */
class DistributedTopKSpec extends SparkSpec {

  private def setup(nEntities: Int, seed: Long) = {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val cells = TraceGen.syn(spark, 16, nEntities,
      repro.mobility.ImParams(horizon = 40), seed)
    val store = TraceStore.fromCells(spark, cells, sp)
    val levelCells = Cells.levelCells(spark, cells, sp).cache()
    val h = new AdditiveHasher(sp, 8, seed + 1)
    val tree = MinSigTree.fromCells(spark, cells, sp, h)
    val d = AdmMeasure(sp.m, 1, 1)
    (sp, store, levelCells, h, tree, d)
  }

  test("degrees DataFrame matches the driver brute force for all entities") {
    val (sp, store, levelCells, _, _, d) = setup(60, 401)
    val q = 0L
    val got = {
      import spark.implicits._
      BruteForce.degreesDf(spark, levelCells, q, d, sp)
        .as[(Long, Double)].collect().toMap
    }
    val expected = BruteForce.rankAll(store, d, q).filter(_._2 > 0).toMap
    assert(got.keySet == expected.keySet)
    got.foreach { case (e, deg) => assert(math.abs(deg - expected(e)) < 1e-9, s"entity $e") }
  }

  /** Runs both searches, checks each is an exact Top-k, and returns them. */
  private def both(store: TraceStore, levelCells: Dataset[(Long, Array[Array[Long]])], h: CellHasher,
      tree: MinSigTree, d: Measure, q: Long, k: Int, batchEntities: Int = 4096) = {
    val driver = new TopKSearcher(tree, store, h, d).search(q, k).hits
    val dist = DistributedTopK.search(spark, tree, levelCells, h, d, q, k, batchEntities).hits
    val clue = s"batch=$batchEntities"
    ExactTopK.check(driver, store, d, q, k, s"driver $clue")
    ExactTopK.check(dist, store, d, q, k, s"spark $clue")
    (driver, dist)
  }

  test("distributed search returns the same degree sequence as the driver search") {
    val (_, store, levelCells, h, tree, d) = setup(80, 402)
    for (q <- Seq(0L, 7L, 19L); k <- Seq(1, 5)) {
      val (driver, dist) = both(store, levelCells, h, tree, d, q, k)
      assert(dist.size == driver.size, s"q=$q k=$k")
      dist.zip(driver).foreach { case (a, b) => assert(math.abs(a._2 - b._2) < 1e-9, s"q=$q k=$k") }
    }
  }

  test("distributed search with tiny batches still terminates correctly") {
    val (_, store, levelCells, h, tree, d) = setup(50, 403)
    val (driver, dist) = both(store, levelCells, h, tree, d, 3L, 3, batchEntities = 2)
    assert(dist.size == driver.size)
    dist.zip(driver).foreach { case (a, b) => assert(math.abs(a._2 - b._2) < 1e-9) }
  }

  test("distributed search keeps zero-degree entities when k exceeds the non-zero answers") {
    val (_, store, levelCells, h, tree, d) = setup(50, 407)
    val q = 5L
    val nonZero = BruteForce.rankAll(store, d, q).count(_._2 > 0)
    val k = nonZero + 3
    assert(k < store.entities.size - 1, s"only ${store.entities.size - nonZero - 1} zero-degree entities")
    for (batch <- Seq(1, 2, 4096)) {
      val (_, dist) = both(store, levelCells, h, tree, d, q, k, batch)
      assert(dist.count(_._2 == 0.0) == 3, s"batch=$batch")
    }
  }

  test("distributed and driver searches agree under an asymmetric measure") {
    val (sp, store, levelCells, h, tree, _) = setup(60, 408)
    val d = AsymmetricMeasure(sp.m)
    for (q <- Seq(2L, 13L); batch <- Seq(2, 4096)) {
      val (driver, dist) = both(store, levelCells, h, tree, d, q, 5, batch)
      assert(dist == driver, s"q=$q batch=$batch")
    }
  }

  test("distributed search checked count never exceeds |E| - 1") {
    val (_, store, levelCells, h, tree, d) = setup(40, 404)
    val r = DistributedTopK.search(spark, tree, levelCells, h, d, 1L, 2)
    assert(r.checked <= store.entities.size - 1)
  }

  test("queryCells extracts per-level sorted cells") {
    val (sp, store, levelCells, _, _, _) = setup(20, 405)
    val qc = DistributedTopK.queryCells(levelCells, 2L, sp.m)
    for (l <- 1 to sp.m)
      assert(qc(l - 1).toSeq == store.levelCells(2L, l).toSeq)
  }

  test("queryCells for an absent entity throws") {
    val (sp, _, levelCells, _, _, _) = setup(10, 406)
    intercept[IllegalArgumentException](
      DistributedTopK.queryCells(levelCells, 888L, sp.m))
  }

  test("brute-force degreesDf for an absent entity throws") {
    val (sp, _, levelCells, _, _, d) = setup(10, 409)
    intercept[IllegalArgumentException](
      BruteForce.degreesDf(spark, levelCells, 888L, d, sp))
  }

  test("queryCells rejects level cells of another depth") {
    val (sp, _, levelCells, _, _, _) = setup(20, 410)
    assert(DistributedTopK.queryCells(levelCells, 2L, sp.m).length == sp.m)
    intercept[IllegalArgumentException](
      DistributedTopK.queryCells(levelCells, 2L, sp.m + 1))
  }

  test("a batch over cached level cells plans no shuffle") {
    val (sp, store, levelCells, _, _, d) = setup(30, 411)
    levelCells.count()
    val q = 2L
    val candidates = store.entities.filter(_ != q).take(10).toSet
    val df = DistributedTopK.degrees(spark, levelCells, q,
      DistributedTopK.queryCells(levelCells, q, sp.m), d, Some(candidates))
    assert(df.collect().length == candidates.size)
    // The helper's collect does not descend into the cached relation's plan.
    val shuffles = new AdaptiveSparkPlanHelper {}.collect(df.queryExecution.executedPlan) {
      case s: ShuffleExchangeLike => s
    }
    assert(shuffles.isEmpty)
  }
}
