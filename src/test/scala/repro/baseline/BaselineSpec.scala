package repro.baseline

import repro.SparkSpec
import repro.core._
import repro.mobility.{ImParams, TraceGen}
import repro.spindex.SpIndex

/** The §6.2 cluster/bitmap baseline: exactness (it prunes, but must never
  * lose an answer) and its structural properties.
  */
class BaselineSpec extends SparkSpec {

  private def setup(nEntities: Int, seed: Long, nClusters: Int = 16) = {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val cells = TraceGen.syn(spark, 16, nEntities, repro.mobility.ImParams(horizon = 40), seed)
    val store = TraceStore.fromCells(spark, cells, sp)
    val idx = ClusterBitmap.build(spark, cells, sp, nClusters = nClusters, minSupport = 2)
    val d = AdmMeasure(sp.m, 1, 1)
    (sp, store, idx, d)
  }

  test("bitmap groups cover every entity exactly once") {
    val (_, store, idx, _) = setup(60, 501)
    val all = idx.groups.flatMap(_._2)
    assert(all.size == store.entities.size)
    assert(all.toSet == store.entities.toSet)
  }

  test("entity vectors have a set bit for every level of every owned cell") {
    val (sp, store, idx, _) = setup(40, 502)
    idx.groups.foreach { case (words, es) =>
      es.take(3).foreach { e =>
        for (l <- 1 to sp.m; cell <- store.levelCells(e, l)) {
          val bit = idx.bitOf(l, idx.clusterOf(l, cell))
          assert(idx.bitSet(words, bit), s"entity $e level $l cell $cell")
        }
      }
    }
  }

  test("baseline search is exact: degree sequence matches brute force") {
    val (_, store, idx, d) = setup(80, 503)
    // The last k exceeds |E|: every other entity is returned, zero degrees included.
    for (q <- Seq(0L, 5L, 17L, 33L); k <- Seq(1, 5, 10, store.entities.size + 5))
      ExactTopK.check(ClusterBitmap.search(idx, store, d, q, k).hits, store, d, q, k)
  }

  test("baseline search rejects k < 1 and an absent query") {
    val (_, store, idx, d) = setup(20, 509)
    intercept[IllegalArgumentException](ClusterBitmap.search(idx, store, d, 0L, 0))
    val absent = intercept[IllegalArgumentException](ClusterBitmap.search(idx, store, d, 9999L, 1))
    assert(absent.getMessage.contains("query entity 9999 has no trace"))
  }

  test("baseline never returns the query entity") {
    val (_, store, idx, d) = setup(40, 504)
    store.entities.toSeq.sorted.take(8).foreach { q =>
      assert(!ClusterBitmap.search(idx, store, d, q, 5).hits.exists(_._1 == q))
    }
  }

  test("baseline and MinSigTree both prune while staying exact") {
    // The paper's §6.7 claim (baseline checks far more than MinSigTree) is
    // asserted at bench scale in Fig6ResultSizeBench; at unit scale with
    // 150 entities either can win by luck, so only sanity is checked here.
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val cells = TraceGen.syn(spark, 16, 150, repro.mobility.ImParams(horizon = 40), 505)
    val store = TraceStore.fromCells(spark, cells, sp)
    val d = AdmMeasure(sp.m, 1, 1)
    val h = new AdditiveHasher(sp, 32, 506)
    val tree = MinSigTree.fromCells(spark, cells, sp, h)
    val searcher = new TopKSearcher(tree, store, h, d)
    val idx = ClusterBitmap.build(spark, cells, sp, nClusters = 16, minSupport = 2)
    val queries = store.entities.toSeq.sorted.take(10)
    val n = store.entities.size
    queries.foreach { q =>
      val tk = searcher.search(q, 5)
      val bl = ClusterBitmap.search(idx, store, d, q, 5)
      assert(tk.checked >= tk.hits.count(_._2 > 0) && tk.checked <= n - 1)
      assert(bl.checked >= bl.hits.count(_._2 > 0) && bl.checked <= n - 1)
      tk.hits.map(_._2).zip(bl.hits.map(_._2)).foreach { case (a, b) =>
        assert(math.abs(a - b) < 1e-9, s"q=$q tree/baseline degree mismatch")
      }
    }
  }

  test("build is repeatable: repartitioned inputs give the same index and answers") {
    // At this size pair counts and component sizes tie often enough that a
    // build order taken from Spark's task completion differs between builds.
    val sp = SpIndex.build(64, 4, 2.0, 2.0)
    val cells = TraceGen.syn(spark, 64, 2000, repro.mobility.ImParams(horizon = 240), 510).cache()
    val store = TraceStore.fromCells(spark, cells, sp)
    val d = AdmMeasure(sp.m, 1, 1)
    def groups(idx: ClusterBitmapIndex) =
      idx.groups.map { case (w, es) => (w.toSeq, es.toSeq) }.sortBy(_._2.head)
    val a = ClusterBitmap.build(spark, cells, sp, nClusters = 64, minSupport = 2)
    val queries = store.entities.toSeq.sorted.take(10)
    for (parts <- Seq(7, 3, 5)) {
      val b = ClusterBitmap.build(spark, cells.repartition(parts), sp, nClusters = 64,
        minSupport = 2)
      for (e <- store.entities; l <- 1 to sp.m; c <- store.levelCells(e, l))
        assert(a.clusterOf(l, c) == b.clusterOf(l, c), s"$parts partitions: level $l cell $c")
      assert(groups(a) == groups(b), s"$parts partitions")
      for (q <- queries; k <- Seq(1, 10)) {
        val ra = ClusterBitmap.search(a, store, d, q, k)
        val rb = ClusterBitmap.search(b, store, d, q, k)
        assert(ra.hits == rb.hits && ra.checked == rb.checked, s"$parts partitions: q=$q k=$k")
      }
    }
    cells.unpersist()
  }

  test("hashCluster is deterministic and in range") {
    (0L until 1000L).foreach { c =>
      val x = ClusterBitmap.hashCluster(c, 16)
      assert(x >= 0 && x < 16)
      assert(x == ClusterBitmap.hashCluster(c, 16))
    }
  }

  test("clusterOf falls back to spatial (unit-keyed) clusters for unmined cells") {
    val (_, _, idx, _) = setup(10, 507, nClusters = 8)
    val unseenA = Cells.encode(9999, 3)
    val unseenB = Cells.encode(8888, 3) // same unit, different time
    assert(idx.clusterOf(1, unseenA) == ClusterBitmap.hashCluster(3L, 8))
    assert(idx.clusterOf(1, unseenA) == idx.clusterOf(1, unseenB),
      "locality clustering must ignore time for unmined cells")
  }

  test("brute force rejects k < 1 and an absent query") {
    val (_, store, _, d) = setup(20, 511)
    intercept[IllegalArgumentException](BruteForce.topK(store, d, 0L, 0))
    val absent = intercept[IllegalArgumentException](BruteForce.topK(store, d, 9999L, 1))
    assert(absent.getMessage.contains("query entity 9999 has no trace"))
    intercept[IllegalArgumentException](BruteForce.rankAll(store, d, 9999L))
  }

  test("rankAll is a total ranking sorted by degree desc") {
    val (_, store, _, d) = setup(30, 508)
    val ranked = BruteForce.rankAll(store, d, 0L)
    assert(ranked.size == store.entities.size - 1)
    assert(ranked.map(_._2).sorted.reverse == ranked.map(_._2))
  }

  /** `topK` must be `rankAll`'s prefix exactly: ids, degrees and order. */
  private def assertTopKIsPrefix(store: TraceStore, d: Measure, q: Long): Unit = {
    val ranked = BruteForce.rankAll(store, d, q)
    val n = store.entities.size
    for (k <- Seq(1, 2, 10, n - 1, n, n + 5))
      assert(BruteForce.topK(store, d, q, k) == ranked.take(k), s"q=$q k=$k")
  }

  test("brute-force topK is rankAll's prefix where many entities tie at degree 0") {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    // Traces at times no other trace reaches score 0 against every query.
    val apart = (0L until 30L).map(i => (1000 + i) -> Array((400 + i.toInt, 9))).toMap
    val store = TraceStore.fromLocal(TraceGen.synLocal(16, 40, ImParams(horizon = 40), 512) ++ apart, sp)
    val d = AdmMeasure(sp.m, 1, 1)
    assert(BruteForce.rankAll(store, d, 0L).count(_._2 == 0.0) >= 30)
    for (q <- Seq(0L, 7L, 1000L)) assertTopKIsPrefix(store, d, q)
    assertTopKIsPrefix(store, JaccardMeasure(sp.m), 0L)
  }

  test("brute-force topK breaks ties above 0 at the cut by the lower id") {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val syn = TraceGen.synLocal(16, 40, ImParams(horizon = 40), 513)
    // Six copies of entity 3's trace, and three of entity 4's.
    val copies = (0L until 6L).map(i => (300 - i) -> syn(3L)) ++ (0L until 3L).map(i => (400 - i) -> syn(4L))
    val store = TraceStore.fromLocal(syn ++ copies, sp)
    val d = AdmMeasure(sp.m, 1, 1)
    val ranked = BruteForce.rankAll(store, d, 3L)
    assert(ranked.take(6).forall(_._2 == ranked.head._2) && ranked.head._2 > 0)
    for (q <- Seq(3L, 4L, 5L)) assertTopKIsPrefix(store, d, q)
  }

  test("brute-force topK over a store holding only the query is empty") {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val store = TraceStore.fromLocal(Map(5L -> Array((1, 2), (2, 2))), sp)
    val d = AdmMeasure(sp.m, 1, 1)
    for (k <- Seq(1, 2, 10)) assert(BruteForce.topK(store, d, 5L, k).isEmpty)
    assert(BruteForce.rankAll(store, d, 5L).isEmpty)
  }
}
