package repro.core

import repro.SparkSpec
import repro.mobility.{ImParams, TraceGen}
import repro.spindex.SpIndex

/** End-to-end exactness and pruning sanity on the actual SYN benchmark
  * generator (companion groups + anchor events + detection sampling) —
  * the data every PE table is measured on.
  */
class SynExactnessSpec extends SparkSpec {

  private def setup(nEntities: Long, nh: Int, seed: Long) = {
    val sp = SpIndex.build(32, 4, 2.0, 2.0)
    val cells = TraceGen.syn(spark, 32, nEntities, ImParams(horizon = 120), seed)
    val store = TraceStore.fromCells(spark, cells, sp)
    val h = new AdditiveHasher(sp, nh, seed + 7)
    val tree = MinSigTree.fromCells(spark, cells, sp, h)
    val d = AdmMeasure(sp.m, 1, 1)
    (sp, store, new TopKSearcher(tree, store, h, d), d, cells)
  }

  test("top-k degrees match brute force on SYN companion data (nh=64)") {
    val (_, store, searcher, d, _) = setup(400, 64, 901)
    for (q <- Seq(0L, 8L, 17L, 100L, 333L); k <- Seq(1, 10, 50)) {
      ExactTopK.check(searcher.search(q, k).hits, store, d, q, k)
    }
  }

  test("top-1 answers on SYN are companions with high degrees") {
    val (_, store, searcher, _, _) = setup(400, 64, 902)
    // For group leaders with decent traces, the best match should be a
    // group sibling (same id/8 block) most of the time.
    val leaders = (0L until 400L by 8).filter(e => store.sizes(e)(3) >= 10).take(15)
    val sameGroup = leaders.count { q =>
      searcher.search(q, 1).hits.headOption.exists(h => h._1 / 8 == q / 8)
    }
    assert(sameGroup >= leaders.size / 2, s"only $sameGroup/${leaders.size} top-1 were companions")
  }

  test("pruning is effective on SYN: top-1 checks far fewer entities than a scan") {
    val (_, store, searcher, _, _) = setup(800, 256, 903)
    val queries = store.entities.toSeq.sorted.filter(e => store.sizes(e)(3) >= 10).take(10)
    val checked = queries.map(q => searcher.search(q, 1).checked)
    assert(checked.sum < 10 * 800 / 2,
      s"top-1 should skip most of the population: $checked")
  }

  test("more hash functions never hurt average top-1 pruning on SYN") {
    val (_, store8, s8, _, cells) = setup(400, 8, 904)
    val sp = store8.sp
    val h256 = new AdditiveHasher(sp, 256, 911)
    val tree256 = MinSigTree.fromCells(spark, cells, sp, h256)
    val s256 = new TopKSearcher(tree256, store8, h256, AdmMeasure(sp.m, 1, 1))
    val queries = store8.entities.toSeq.sorted.filter(e => store8.sizes(e)(3) >= 10).take(10)
    val c8 = queries.map(q => s8.search(q, 1).checked).sum
    val c256 = queries.map(q => s256.search(q, 1).checked).sum
    assert(c256 <= c8, s"nh=256 checked $c256 > nh=8 checked $c8")
  }

  test("distributed search agrees with driver search on SYN data") {
    val (sp, store, searcher, d, cells) = setup(300, 64, 905)
    val levelCells = Cells.levelCells(spark, cells, sp).cache()
    for (q <- Seq(0L, 42L, 111L)) {
      val driver = searcher.search(q, 5).hits
      val dist = DistributedTopK
        .search(spark, searcher.tree, levelCells, searcher.hasher, d, q, 5)
        .hits
      ExactTopK.check(driver, store, d, q, 5, "driver")
      ExactTopK.check(dist, store, d, q, 5, "spark")
      assert(dist.size == driver.size, s"q=$q")
      dist.zip(driver).foreach { case (a, b) => assert(math.abs(a._2 - b._2) < 1e-9, s"q=$q") }
    }
    levelCells.unpersist()
  }

  test("every SYN entity is indexed and searchable") {
    val (_, store, searcher, _, _) = setup(100, 16, 906)
    assert(store.entities.size == 100)
    store.entities.toSeq.sorted.foreach { q =>
      val r = searcher.search(q, 3)
      assert(r.hits.nonEmpty)
    }
  }
}
