package repro.core

import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}

import repro.{PaperExample, SparkSpec}
import repro.baseline.BruteForce
import repro.mobility.{ImModel, ImParams, TraceGen}
import repro.spindex.SpIndex

/** Algorithm 2 (§4): the Example 4.1 walk, exactness against brute force
  * across datasets × measures × k, and Theorem 4.1 upper-bound validity.
  */
class TopKSpec extends SparkSpec {

  private def paperSetup: (TraceStore, TopKSearcher) = {
    val pe = PaperExample
    val store = TraceStore.fromLocal(pe.traces, pe.sp)
    val sigs = pe.traces.map { case (e, cs) => e -> Signatures.computeLocal(cs, pe.sp, pe.hasher) }
    val tree = MinSigTree.fromLocal(sigs, pe.sp, nh = 2)
    (store, new TopKSearcher(tree, store, pe.hasher, pe.measure41))
  }

  test("Example 4.1: top-1 for e_c is e_a with degree 0.5") {
    val (_, searcher) = paperSetup
    val r = searcher.search(PaperExample.eC, 1)
    assert(r.hits.map(_._1) == Seq(PaperExample.eA))
    assert(math.abs(r.hits.head._2 - 0.5) < 1e-12)
  }

  test("Example 4.1: pruning never scores e_b; at most e_a and e_d are checked") {
    // With the paper's sig_d^2 typo corrected (see PaperExample), e_d's
    // branch carries no level-2 pruning information, so it may be checked
    // in addition to e_a — but N22={e_b} is pruned to UB=0.1 < 0.5 and is
    // never scored.
    val (_, searcher) = paperSetup
    val r = searcher.search(PaperExample.eC, 1)
    assert(r.checked <= 2, s"checked ${r.checked} entities, expected at most {e_a, e_d}")
  }

  test("Example 4.1: searching from every entity returns exact brute-force top-1") {
    val (store, searcher) = paperSetup
    PaperExample.traces.keys.foreach { q =>
      val expected = BruteForce.topK(store, PaperExample.measure41, q, 1)
      val got = searcher.search(q, 1)
      assert(got.hits.map(_._2) == expected.map(_._2), s"query $q")
    }
  }

  /** Random-dataset harness: build everything driver-side. */
  private def randomSetup(
      nEntities: Int,
      nh: Int,
      seed: Long,
      measure: SpIndex => Measure,
      side: Int = 16,
      m: Int = 3,
      horizon: Int = 40,
  ): (TraceStore, TopKSearcher, Measure) = {
    val sp = SpIndex.build(side, m, 2.0, 1.0)
    val traces = (0L until nEntities.toLong)
      .map(e => e -> ImModel.simulate(e, side, ImParams(horizon = horizon), seed))
      .toMap
    val store = TraceStore.fromLocal(traces, sp)
    val h = new AdditiveHasher(sp, nh, seed + 13)
    val sigs = traces.map { case (e, cs) => e -> Signatures.computeLocal(cs, sp, h) }
    val tree = MinSigTree.fromLocal(sigs, sp, nh)
    val d = measure(sp)
    (store, new TopKSearcher(tree, store, h, d), d)
  }

  // Exactness: the top-k *degree list* must equal brute force's (entity
  // sets may differ under ties; any tie-respecting answer is a valid top-k).
  private def assertExact(store: TraceStore, searcher: TopKSearcher, d: Measure, q: Long, k: Int): Unit =
    ExactTopK.check(searcher.search(q, k).hits, store, d, q, k)

  private val measureFactories: Seq[(String, SpIndex => Measure)] = Seq(
    "ADM(1,1)" -> (sp => AdmMeasure(sp.m, 1, 1)),
    "ADM(2,0.5)" -> (sp => AdmMeasure(sp.m, 2, 0.5)),
    "ADM(0.5,2)" -> (sp => AdmMeasure(sp.m, 0.5, 2)),
    "Jaccard" -> (sp => JaccardMeasure(sp.m)),
    "Cosine" -> (sp => CosineMeasure(sp.m)),
  )

  for ((name, mf) <- measureFactories; seed <- Seq(101L, 202L)) {
    test(s"exactness vs brute force [$name, seed=$seed] for k in {1, 5, 20}") {
      val (store, searcher, d) = randomSetup(150, 8, seed, mf)
      val queries = store.entities.toSeq.sorted.take(8)
      for (q <- queries; k <- Seq(1, 5, 20))
        assertExact(store, searcher, d, q, k)
    }
  }

  test("exactness with very few hash functions (nh=2, weak pruning still exact)") {
    val (store, searcher, d) = randomSetup(100, 2, 303, sp => AdmMeasure(sp.m, 1, 1))
    store.entities.toSeq.sorted.take(6).foreach(q => assertExact(store, searcher, d, q, 3))
  }

  test("exactness with many hash functions (nh=64)") {
    val (store, searcher, d) = randomSetup(100, 64, 304, sp => AdmMeasure(sp.m, 1, 1))
    store.entities.toSeq.sorted.take(6).foreach(q => assertExact(store, searcher, d, q, 3))
  }

  test("exactness on a single-level hierarchy (m=1)") {
    val (store, searcher, d) = randomSetup(80, 8, 305, sp => AdmMeasure(sp.m, 1, 1), m = 1)
    store.entities.toSeq.sorted.take(5).foreach(q => assertExact(store, searcher, d, q, 4))
  }

  test("exactness on a deep hierarchy (m=4) with the REAL-surrogate generator") {
    val sp = SpIndex.build(16, 4, 2.0, 2.0)
    val cells = TraceGen.realLike(spark, 16, 120, horizon = 60, seed = 5)
    val store = TraceStore.fromCells(spark, cells, sp)
    val h = new AdditiveHasher(sp, 16, 44)
    val tree = MinSigTree.fromCells(spark, cells, sp, h)
    val d = AdmMeasure(sp.m, 1, 1)
    val searcher = new TopKSearcher(tree, store, h, d)
    store.entities.toSeq.sorted.take(6).foreach(q => assertExact(store, searcher, d, q, 5))
  }

  test("k larger than the candidate set returns everything ranked") {
    val (store, searcher, d) = randomSetup(10, 4, 306, sp => AdmMeasure(sp.m, 1, 1))
    val r = searcher.search(0L, 50)
    assert(r.hits.size == 9)
    assert(r.hits.map(_._2).sorted.reverse == r.hits.map(_._2))
  }

  test("the answer collector keeps the k best by degree desc, then id asc, in any offer order") {
    val offers = Seq(7L -> 0.5, 3L -> 0.25, 9L -> 0.5, 1L -> 0.0, 4L -> 0.5, 8L -> 0.25, 2L -> 0.0, 6L -> 0.75, 5L -> 0.25)
    val rng = new scala.util.Random(41)
    val orders = Seq(offers, offers.reverse, offers.sortBy(_._1)) ++ Seq.fill(5)(rng.shuffle(offers))
    for (k <- Seq(1, 2, 3, 4, 6, 9, 12); order <- orders) {
      val out = new TopKCollector(k)
      assert(!out.canStop(0.0) && out.admits(0.0))
      order.foreach { case (e, d) => out.offer(e, d) }
      val expected = offers.sortBy { case (e, d) => (-d, e) }.take(k)
      val r = out.result(nodesVisited = 3)
      assert(r == TopKResult(expected, offers.size, 3), s"k=$k order=$order")
      if (k <= offers.size) {
        val kth = expected.last._2
        assert(out.full && out.kth == kth)
        assert(out.canStop(math.nextDown(kth)) && out.canStop(kth) && !out.canStop(math.nextUp(kth)))
        assert(!out.admits(math.nextDown(kth)) && !out.admits(kth) && out.admits(math.nextUp(kth)))
      } else {
        assert(!out.full && out.kth == -1.0)
        assert(!out.canStop(0.0) && out.admits(0.0))
      }
    }
  }

  test("query entity is never part of its own answer") {
    val (store, searcher, _) = randomSetup(50, 8, 307, sp => AdmMeasure(sp.m, 1, 1))
    store.entities.toSeq.sorted.take(10).foreach { q =>
      assert(!searcher.search(q, 5).hits.exists(_._1 == q))
    }
  }

  test("searching an unknown entity throws") {
    val (_, searcher, _) = randomSetup(10, 4, 308, sp => AdmMeasure(sp.m, 1, 1))
    intercept[IllegalArgumentException](searcher.search(9999L, 1))
  }

  // Queries of a 200-hour horizon have more than 64 cells per level, so
  // masks span several words and the checkpoint remainder path runs.
  private def theoremSetups(seed: Long): Seq[(TraceStore, TopKSearcher, Measure)] = Seq(
    randomSetup(120, 8, seed, sp => AdmMeasure(sp.m, 1, 1)),
    randomSetup(60, 8, seed, sp => AdmMeasure(sp.m, 1, 1), horizon = 200),
  )

  test("Theorem 4.1: every leaf upper bound dominates its members' true degrees") {
    for ((store, searcher, d) <- theoremSetups(309); q <- store.entities.toSeq.sorted.take(5)) {
      val sp = store.sp
      val ctx = QueryContext(store, searcher.hasher, d, q)
      def walk(n: SigNode, masks: Array[Long], ub: Double): Unit = {
        if (n.isLeaf) {
          n.entities.filter(_ != q).foreach { e =>
            val actual = store.degree(d, e, q)
            assert(ub >= actual - 1e-9, s"q=$q leaf member $e: ub=$ub actual=$actual")
          }
        } else n.children.valuesIterator.foreach { c =>
          val m2 = ctx.pruneMasks(masks, c)
          walk(c, m2, math.min(ub, ctx.upperBound(m2)))
        }
      }
      walk(searcher.tree.root, ctx.freshMasks(), 1.0)
      assert(sp.m >= 1)
    }
  }

  test("upper bounds tighten monotonically down every path (Theorem 3.3 corollary)") {
    for ((store, searcher, d) <- theoremSetups(310)) {
      val q = store.entities.toSeq.min
      val ctx = QueryContext(store, searcher.hasher, d, q)
      def walk(n: SigNode, masks: Array[Long], parentUb: Double): Unit = {
        n.children.valuesIterator.foreach { c =>
          val m2 = ctx.pruneMasks(masks, c)
          val ub = ctx.upperBound(m2)
          assert(ub <= parentUb + 1e-12)
          walk(c, m2, math.min(parentUb, ub))
        }
      }
      walk(searcher.tree.root, ctx.freshMasks(), 1.0)
    }
  }

  test("best-first hands leaves to the leaf step in non-increasing bound order") {
    for ((store, searcher, d) <- theoremSetups(317); q <- store.entities.toSeq.sorted.take(4)) {
      val ctx = QueryContext(store, searcher.hasher, d, q)
      // Every node's queue bound, recomputed by a walk from the root.
      val bound = scala.collection.mutable.HashMap.empty[SigNode, Double]
      def walk(n: SigNode, mask: Array[Long], ub: Double): Unit = {
        bound(n) = ub
        n.children.valuesIterator.foreach { c =>
          val m2 = ctx.pruneMasks(mask, c)
          walk(c, m2, math.min(ub, ctx.upperBound(m2)))
        }
      }
      walk(searcher.tree.root, ctx.freshMasks(), 1.0)
      for (k <- Seq(1, 5, 20)) {
        val taken = scala.collection.mutable.ArrayBuffer.empty[SigNode]
        val step = new LeafStep {
          def take(leaf: SigNode, emit: (Long, Double) => Unit): Unit = {
            taken += leaf
            leaf.entities.foreach(e => if (e != q) emit(e, store.degree(d, e, q)))
          }
        }
        val r = BestFirst.search(searcher.tree, ctx, k, step)
        ExactTopK.check(r.hits, store, d, q, k)
        val bounds = taken.map(bound)
        assert(bounds.nonEmpty, s"q=$q k=$k: no leaf taken")
        bounds.zip(bounds.tail).zipWithIndex.foreach { case ((a, b), i) =>
          assert(b <= a, s"q=$q k=$k: leaf ${i + 1} has bound $b after $a")
        }
      }
    }
  }

  /** The per-cell pruning rule, applied cell by cell: level-`l` cell `c`
    * survives a node iff it survived the parent and, when `l ≥ node.level`,
    * no top coordinate `(u, V)` of the node has `h_u^l(c) < V`.
    */
  private def referencePrune(
      ctx: QueryContext,
      parent: Array[Array[Boolean]],
      node: SigNode,
  ): Array[Array[Boolean]] = {
    val coords = node.topCoords
    Array.tabulate(ctx.sp.m) { li =>
      Array.tabulate(ctx.qSizes(li)) { c =>
        val cell = ctx.qLevel(li)(c)
        parent(li)(c) && (li < node.level - 1 || coords.grouped(2).forall { case Array(u, v) =>
          ctx.hasher.unit(u, li + 1, Cells.timeOf(cell), Cells.unitOf(cell)) >= v
        })
      }
    }
  }

  /** The cells a bitset mask keeps, per level; bits past a level's cells must be clear. */
  private def maskCells(ctx: QueryContext, mask: Array[Long]): Array[Array[Boolean]] = {
    assert(mask.length == ctx.wordOffset(ctx.sp.m))
    Array.tabulate(ctx.sp.m) { li =>
      val off = ctx.wordOffset(li)
      def bit(c: Int): Boolean = (mask(off + (c >>> 6)) >>> (c & 63) & 1L) == 1L
      for (c <- ctx.qSizes(li) until 64 * (ctx.wordOffset(li + 1) - off))
        assert(!bit(c), s"level ${li + 1} bit $c")
      Array.tabulate(ctx.qSizes(li))(bit)
    }
  }

  /** Prices `node` under both kernels and checks survivors and bound. */
  private def checkPricing(
      ctx: QueryContext,
      mask: Array[Long],
      ref: Array[Array[Boolean]],
      node: SigNode,
  ): (Array[Long], Array[Array[Boolean]]) = {
    val m2 = ctx.pruneMasks(mask, node)
    val ref2 = referencePrune(ctx, ref, node)
    val got = maskCells(ctx, m2)
    for (li <- 0 until ctx.sp.m)
      assert(got(li).sameElements(ref2(li)), s"level ${li + 1} of a level-${node.level} node")
    val surv = ref2.map(_.count(identity))
    val expected = ctx.measure.degree(surv, surv, ctx.qSizes)
    assert(java.lang.Double.doubleToRawLongBits(ctx.upperBound(m2)) ==
      java.lang.Double.doubleToRawLongBits(expected))
    (m2, ref2)
  }

  test("bitset pricing keeps exactly the cells the per-cell rule keeps") {
    // Every priced path of real trees, one- and several-word levels.
    for ((store, searcher, _) <- theoremSetups(316); q <- store.entities.toSeq.sorted.take(3)) {
      val ctx = QueryContext(store, searcher.hasher, searcher.measure, q)
      def walk(n: SigNode, mask: Array[Long], ref: Array[Array[Boolean]]): Unit =
        n.children.valuesIterator.foreach { c =>
          val (m2, ref2) = checkPricing(ctx, mask, ref, c)
          walk(c, m2, ref2)
        }
      walk(searcher.tree.root, ctx.freshMasks(), ctx.qSizes.map(Array.fill(_)(true)))
    }

    // Synthetic queries with cell counts around the word edges, and node
    // chains with a few pruning coordinates each: a value equal to the hash
    // at a random rank of the level's sorted query hashes (a tie), or one
    // above or below it, or larger than all of them; every other coordinate
    // is 0 and prunes nothing. n_h is below and above the 64 top coordinates.
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val rng = new scala.util.Random(317)
    val counts = Seq(1, 63, 64, 65, 128, 129)
    for (nh <- Seq(8, 100); shift <- counts.indices) {
      val hasher = new AdditiveHasher(sp, nh, 318 + nh)
      val qLevel = Array.tabulate(sp.m) { li =>
        val n = counts((shift + li) % counts.size)
        rng.shuffle((0 until 400).toVector).take(n)
          .map(t => Cells.encode(t, rng.nextInt(sp.widths(li)))).sorted.toArray
      }
      val ctx = new QueryContext(sp, hasher, AdmMeasure(sp.m, 1, 1), qLevel)
      val sortedHashes = Array.tabulate(sp.m, nh) { (li, u) =>
        qLevel(li).map(c => hasher.unit(u, li + 1, Cells.timeOf(c), Cells.unitOf(c))).sorted
      }
      for (_ <- 0 until 40) {
        var mask = ctx.freshMasks()
        var ref = ctx.qSizes.map(Array.fill(_)(true))
        for (level <- 1 to sp.m) {
          val values = new Array[Int](nh)
          for (_ <- 0 to rng.nextInt(4)) {
            val u = rng.nextInt(nh)
            val hs = sortedHashes(level - 1 + rng.nextInt(sp.m - level + 1))(u)
            val rank = rng.nextInt(hs.length + 1)
            values(u) = if (rank == hs.length) Int.MaxValue else hs(rank) + rng.nextInt(3) - 1
          }
          val node = new SigNode(level, 0)
          node.merge(values, 0, nh)
          val (m2, ref2) = checkPricing(ctx, mask, ref, node)
          mask = m2
          ref = ref2
        }
      }
    }
  }

  test("exactness is preserved after incremental updates (§3.2.3)") {
    val (store0, searcher0, d) = randomSetup(100, 8, 311, sp => AdmMeasure(sp.m, 1, 1))
    val sp = store0.sp
    val tree = searcher0.tree
    val h = searcher0.hasher
    // Re-simulate 30 entities with new traces and update both store & tree.
    val updated = (0L until 30L).map { e =>
      e -> ImModel.simulate(e + 5000, 16, ImParams(horizon = 40), 312)
    }.toMap
    val newData = store0.data ++ updated.map { case (e, cs) => e -> Cells.rollup(cs, sp) }
    val store = new TraceStore(sp, newData)
    updated.foreach { case (e, cs) => tree.update(e, Signatures.computeLocal(cs, sp, h)) }
    // Also insert brand-new entities.
    val fresh = (1000L until 1010L).map { e =>
      e -> ImModel.simulate(e, 16, ImParams(horizon = 40), 313)
    }.toMap
    val store2 = new TraceStore(sp, store.data ++ fresh.map { case (e, cs) => e -> Cells.rollup(cs, sp) })
    fresh.foreach { case (e, cs) => tree.insert(e, Signatures.computeLocal(cs, sp, h)) }
    val searcher = new TopKSearcher(tree, store2, h, d)
    store2.entities.toSeq.sorted.take(8).foreach(q => assertExact(store2, searcher, d, q, 5))
  }

  test("concurrent queries on one searcher return the sequential results") {
    def build() = randomSetup(150, 16, 315, sp => AdmMeasure(sp.m, 1, 1))
    val (store, sequential, _) = build()
    val queries = store.entities.toSeq.sorted.take(16)
    val expected = queries.map(q => sequential.search(q, 10))
    // A second, identical build: its nodes' top-coordinate caches are still
    // empty, so the threads race to fill them.
    val (_, shared, _) = build()
    val threads = 8
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val start = new CountDownLatch(1)
      val runs = (0 until threads).map { t =>
        pool.submit(new Callable[Seq[(Int, TopKResult)]] {
          def call(): Seq[(Int, TopKResult)] = {
            start.await()
            queries.indices.map { i =>
              val j = (i + t) % queries.size
              j -> shared.search(queries(j), 10)
            }
          }
        })
      }
      start.countDown()
      runs.zipWithIndex.foreach { case (run, t) =>
        run.get(120, TimeUnit.SECONDS).foreach { case (j, r) =>
          assert(r == expected(j), s"thread $t query ${queries(j)}")
        }
      }
    } finally pool.shutdownNow()
  }

  test("checked count is bounded by |E|-1 and PE is within [0, 1]") {
    val (store, searcher, _) = randomSetup(60, 8, 314, sp => AdmMeasure(sp.m, 1, 1))
    val n = store.entities.size
    store.entities.toSeq.sorted.take(10).foreach { q =>
      val r = searcher.search(q, 5)
      assert(r.checked <= n - 1)
      val pe = r.pe(n)
      assert(pe >= 0.0 && pe <= 1.0)
    }
  }
}
