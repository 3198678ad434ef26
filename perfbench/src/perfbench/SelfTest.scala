package perfbench

import scala.util.Try

import repro.baseline.BruteForce
import repro.core._
import repro.mobility.TraceGen
import repro.spindex.SpIndex

/** Tests of the benchmark's own logic: the tail rule, failure accounting,
  * and exact delegation by the tracing decorators. Every run starts with
  * them; `run.py --self-test` runs them alone.
  */
object SelfTest {

  private def check(ok: Boolean, what: String): Unit =
    if (!ok) throw new AssertionError(s"self-test failed: $what")

  def run(): Unit = {
    tailRule()
    failureAccounting()
    decoratorsDelegate()
  }

  private def tailRule(): Unit = {
    val eleven = (1 to 11).map(_.toDouble)
    check(Stats.tail(eleven) == Stats.Tail(1.0, 100.0 / 11, 11), "11 samples: the smallest, 10 beyond it")
    val hundred = scala.util.Random.shuffle((1 to 100).map(_.toDouble))
    val t = Stats.tail(hundred)
    check(t.value == 90.0 && t.percentile == 90.0 && t.n == 100, s"100 samples give p90, got $t")
    check(hundred.count(_ > t.value) == Stats.TailBeyond, "exactly 10 samples beyond the tail")
    check(Stats.tail((1 to 1000).map(_.toDouble)).percentile == 99.0, "1000 samples give p99")
    check(Try(Stats.tail((1 to 10).map(_.toDouble))).isFailure, "10 samples have no tail")
    check(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0 && Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5, "median")
  }

  private def failureAccounting(): Unit = {
    val g = new Gate
    check(g.attempt("ok")(1).map(_._1).contains(1), "a good op returns its value")
    check(g.attempt("throws")(throw new IllegalStateException("boom")).isEmpty, "a thrown op gives no sample")
    // True degrees: entity 1 has 0.25, 2 has 0.5, 3 and 4 have 0.0; 0 is the query.
    val degrees = Map(1L -> 0.25, 2L -> 0.5, 3L -> 0.0, 4L -> 0.0)
    val want = Seq((2L, 0.5), (3L, 0.0))
    def run(id: String, got: Seq[(Long, Double)]): Unit =
      g.attempt(id)(got).foreach { case (r, _) => g.exact(id, r, want, degrees.get) }
    run("wrong", Seq((1L, 0.5), (3L, 0.0)))
    run("no-zeros", Seq((2L, 0.5)))
    run("right", want)
    run("other-tie", Seq((2L, 0.5), (4L, 0.0)))
    run("duplicate", Seq((2L, 0.5), (2L, 0.0)))
    run("query", Seq((2L, 0.5), (0L, 0.0)))
    check(g.attempted == 8 && g.failed == 5 && g.failedShare == 5.0 / 8, s"5 of 8 failed, got ${g.failureList}")
    check(g.failureList.map(_._1).toSet == Set("throws", "wrong", "no-zeros", "duplicate", "query"),
      "failures name their ops")
    check(g.failureList.exists(f => f._1 == "no-zeros" && f._2.contains("zero-degree")),
      "a dropped zero-degree entity is named as such")
    check(g.tieOrderList.map(_._1) == Seq("other-tie") && g.tieOrderShare == 1.0 / 8,
      s"another entity of equal degree is exact but recorded, got ${g.tieOrderList}")
  }

  private def decoratorsDelegate(): Unit = {
    val sp = SpIndex.build(16, 3, 2.0, 2.0)
    val base = TraceGen.synLocal(16, 300, Inputs.Im.copy(horizon = 48), seed = 5)
    val store = TraceStore.fromLocal(base, sp)
    val hasher = new AdditiveHasher(sp, 32, Settings.HasherSeed)
    val tree = MinSigTree.fromLocal(base.map { case (e, cs) => e -> Signatures.computeLocal(cs, sp, hasher) }, sp, 32)
    val measure = AdmMeasure(sp.m, 1, 1)
    val tracer = new Tracer
    val traced = new TracingSource(store, tracer)
    val counting = new CountingMeasure(measure)
    val plain = new TopKSearcher(tree, store, hasher, measure)
    val decorated = new TopKSearcher(tree, traced, hasher, counting)
    val queries = store.entities.toSeq.sorted.filter(e => store.sizes(e)(sp.m - 1) >= Settings.MinCells).take(12)
    check(queries.size == 12, "self-test data has queries")
    for ((q, i) <- queries.zipWithIndex; k <- Settings.Ks) {
      tracer.currentOp = i * 100 + k
      val calls0 = counting.calls.get
      val want = plain.search(q, k)
      val got = decorated.search(q, k)
      check(got == want, s"decorated search of $q top-$k: $got, undecorated $want")
      check(want.hits == BruteForce.topK(store, measure, q, k), s"search of $q top-$k is exact")
      check(tracer.count("degree", tracer.currentOp) == got.checked, "one degree span per checked entity")
      check(counting.calls.get - calls0 >= got.checked, "the counting measure sees every degree")
      val other = queries((i + 1) % queries.size)
      check(traced.degree(measure, q, other) == store.degree(measure, q, other), "degree delegates")
      check(traced.overlaps(q, other).sameElements(store.overlaps(q, other)), "overlaps delegate")
      check(traced.sizes(q).sameElements(store.sizes(q)), "sizes delegate")
      check(traced.baseCells(q).sameElements(store.baseCells(q)), "baseCells delegate")
      check(traced.contains(q) && !traced.contains(-1L), "contains delegates")
      check(counting.degree(Array(1, 1, 1), Array(2, 2, 2), Array(3, 3, 3)) ==
        measure.degree(Array(1, 1, 1), Array(2, 2, 2), Array(3, 3, 3)), "measure delegates")
    }
  }
}
