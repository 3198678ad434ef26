package repro.bench

import java.nio.file.Files

import repro.SparkSpec
import repro.core.TopKSearcher
import repro.exp.Harness
import repro.storage.CachedTraceStore

/** Figure 5 (§6.6): query time vs allocated memory (fraction of the data
  * resident), Top-1/10/50.
  *
  * Substrate substitution (DESIGN.md §3): a binary record file of rolled-up
  * traces in entity-id order, read on the driver through a bounded LRU
  * entity cache with a simulated device delay per miss, stands in for the
  * paper's buffer pool over HDD. Paper claims: descending, super-linear
  * drop at small memory, small variation once memory reaches ~40–50% of
  * the data.
  */
class Fig5MemoryBench extends SparkSpec {

  test("Figure 5: query time vs memory fraction") {
    val (sp, cells) = BenchData.syn
    val built = Harness.build(spark, sp, cells, BenchData.DefaultNh)
    val dir = Files.createTempDirectory("fig5").toString
    val n = built.store.entities.size
    val queries = Harness.pickQueries(built.store, 6)
    val fractions = Seq(0.1, 0.25, 0.5, 1.0)
    val ks = BenchData.Ks

    val rows = fractions.map { f =>
      val cached = CachedTraceStore.create(spark, cells, sp, s"$dir/cells-$f",
        capacity = math.max(1, (n * f).toInt))
      // Warm the cache with a random residency sample, as a buffer pool
      // would be after steady-state operation.
      val rng = new java.util.SplittableRandom(5)
      cached.prefetch(built.store.entities.toSeq.sorted.filter(_ => rng.nextDouble() < f))
      val times = ks.map { k =>
        val searcher = new TopKSearcher(built.tree, cached, built.hasher, BenchData.admOf(sp))
        val t0 = System.nanoTime()
        queries.foreach(q => searcher.search(q, k))
        (System.nanoTime() - t0) / 1e6 / queries.size
      }
      (f, times, cached.misses)
    }

    Harness.printTable(
      "Figure 5 — avg query time (ms) vs memory fraction [paper: descending, flat past ~0.5]",
      Seq("mem fraction") ++ ks.map(k => s"Top-$k") ++ Seq("misses"),
      rows.map { case (f, ts, miss) => Seq(f.toString) ++ ts.map(t => f"$t%.1f") ++ Seq(miss.toString) })

    // Crisp claim: full residency answers faster than 10% residency (sum
    // over ks), and misses decrease with capacity.
    val t10 = rows.head._2.sum
    val t100 = rows.last._2.sum
    assert(t100 <= t10, s"full-memory queries should be faster: 10%=$t10 ms, 100%=$t100 ms")
    assert(rows.head._3 >= rows.last._3, "misses should shrink with capacity")
  }
}
