package repro.storage

import java.nio.file.Files
import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}

import repro.SparkSpec
import repro.core._
import repro.mobility.TraceGen
import repro.spindex.SpIndex

/** The §6.6 memory-constrained substrate: correctness under any capacity,
  * LRU behavior, and search equivalence with the in-memory store.
  */
class CachedTraceStoreSpec extends SparkSpec {

  private def setup(
      capacity: Int,
      seekMicros: Long = CachedTraceStore.SeekMicros,
      perEntityMicros: Long = CachedTraceStore.PerEntityMicros,
  ) = {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val cells = TraceGen.syn(spark, 16, 40, repro.mobility.ImParams(horizon = 30), 701)
    val mem = TraceStore.fromCells(spark, cells, sp)
    val dir = Files.createTempDirectory("cached-store").toString
    val cached = CachedTraceStore.create(spark, cells, sp, s"$dir/cells", capacity, seekMicros, perEntityMicros)
    (sp, mem, cached)
  }

  private def cellsOf(mem: TraceStore) = {
    import spark.implicits._
    mem.entities.toSeq.flatMap { e =>
      mem.baseCells(e).map { case (t, loc) => (e, t, loc) }
    }.toDF("entity", "t", "loc")
  }

  test("cached store returns the same level cells as the in-memory store") {
    val (sp, mem, cached) = setup(capacity = 8)
    mem.entities.toSeq.sorted.take(15).foreach { e =>
      for (l <- 1 to sp.m)
        assert(cached.levelCells(e, l).toSeq == mem.levelCells(e, l).toSeq, s"entity $e level $l")
    }
  }

  test("cache hits dominate when capacity covers the working set") {
    val (_, mem, cached) = setup(capacity = 100)
    val es = mem.entities.toSeq.sorted.take(10)
    cached.prefetch(es)
    val missesAfterWarm = cached.misses
    es.foreach(e => cached.levelCells(e, 1))
    assert(cached.misses == missesAfterWarm, "warm entities must not miss")
    assert(cached.hits >= 10)
  }

  test("tiny capacity evicts: repeated scans keep missing") {
    val (_, mem, cached) = setup(capacity = 2)
    val es = mem.entities.toSeq.sorted.take(10)
    es.foreach(e => cached.levelCells(e, 1))
    val m1 = cached.misses
    es.foreach(e => cached.levelCells(e, 1))
    assert(cached.misses > m1, "LRU of size 2 cannot hold a 10-entity scan")
  }

  test("degree computation through the cached store matches the in-memory store") {
    val (_, mem, cached) = setup(capacity = 5)
    val d = AdmMeasure(mem.sp.m, 1, 1)
    val es = mem.entities.toSeq.sorted
    for (a <- es.take(5); b <- es.slice(5, 10))
      assert(math.abs(cached.degree(d, a, b) - mem.degree(d, a, b)) < 1e-12)
  }

  test("MinSigTree search over the cached store is exact") {
    val (sp, mem, cached) = setup(capacity = 6)
    val h = new AdditiveHasher(sp, 8, 702)
    val tree = MinSigTree.fromCells(spark, cellsOf(mem), sp, h)
    val d = AdmMeasure(sp.m, 1, 1)
    val memSearch = new TopKSearcher(tree, mem, h, d)
    val cachedSearch = new TopKSearcher(tree, cached, h, d)
    // The last k exceeds |E|: every other entity is returned, zero degrees included.
    for (q <- mem.entities.toSeq.sorted.take(5); k <- Seq(3, mem.entities.size + 5)) {
      val a = memSearch.search(q, k).hits.map(_._2)
      val b = cachedSearch.search(q, k)
      a.zip(b.hits.map(_._2)).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9, s"q=$q") }
      ExactTopK.check(b.hits, mem, d, q, k)
    }
  }

  test("MinSigTree search over the cached store rejects an absent query") {
    val (sp, mem, cached) = setup(capacity = 4)
    val h = new AdditiveHasher(sp, 8, 704)
    val tree = MinSigTree.fromCells(spark, cellsOf(mem), sp, h)
    val search = new TopKSearcher(tree, cached, h, AdmMeasure(sp.m, 1, 1))
    intercept[IllegalArgumentException](search.search(123456L, 1))
  }

  test("concurrent queries over a small cache return the sequential in-memory answers") {
    // Two of the 40 entities fit, and no simulated device delay slows the
    // threads' race on the cache: each lookup evicts what another thread
    // has just loaded.
    val (sp, mem, cached) = setup(capacity = 2, seekMicros = 0, perEntityMicros = 0)
    val es = mem.entities.toSeq.sorted
    val h = new AdditiveHasher(sp, 8, 703)
    val tree = MinSigTree.fromCells(spark, cellsOf(mem), sp, h)
    val d = AdmMeasure(sp.m, 1, 1)
    val queries = es.take(16)
    val expected = {
      val memSearch = new TopKSearcher(tree, mem, h, d)
      queries.map(q => memSearch.search(q, 5).hits)
    }
    val shared = new TopKSearcher(tree, cached, h, d)
    val threads = 8
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val start = new CountDownLatch(1)
      val runs = (0 until threads).map { t =>
        pool.submit(new Callable[Seq[(Int, Seq[(Long, Double)])]] {
          def call(): Seq[(Int, Seq[(Long, Double)])] = {
            start.await()
            (0 until 40 * queries.size).map { i =>
              val j = (i + t) % queries.size
              j -> shared.search(queries(j), 5).hits
            }
          }
        })
      }
      start.countDown()
      runs.zipWithIndex.foreach { case (run, t) =>
        run.get(120, TimeUnit.SECONDS).foreach { case (j, hits) =>
          assert(hits == expected(j), s"thread $t query ${queries(j)}")
          ExactTopK.check(hits, mem, d, queries(j), 5, s"thread $t")
        }
      }
    } finally pool.shutdownNow()
    assert(cached.misses > es.size, "the cache must be too small to hold every entity")
  }

  test("prefetch batches misses into one load") {
    val (_, mem, cached) = setup(capacity = 30)
    val before = cached.misses
    val es = mem.entities.toSeq.sorted.take(20)
    cached.prefetch(es)
    assert(cached.misses == before + 20)
    // All prefetched entities now hit.
    es.foreach(e => cached.levelCells(e, 2))
    assert(cached.misses == before + 20)
  }

  test("contains reflects the persisted entity set") {
    val (_, mem, cached) = setup(capacity = 4)
    assert(mem.entities.forall(cached.contains))
    assert(!cached.contains(123456L))
  }
}
