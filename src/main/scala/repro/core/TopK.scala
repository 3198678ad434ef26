package repro.core

import java.util.{Comparator, PriorityQueue}

import scala.collection.mutable

import repro.spindex.SpIndex

/** Result of a top-k search.
  *
  * @param hits    up to k (entity, degree) pairs, degree desc, entity asc
  * @param checked entities whose exact degree was computed (excl. query)
  * @param nodesVisited MinSigTree nodes popped from the candidate queue
  */
final case class TopKResult(hits: Seq[(Long, Double)], checked: Int, nodesVisited: Int) {

  /** Pruning effectiveness per Definition 5.1: (|E'|-k)/|E| — lower is
    * better (fewer entities checked beyond the k answers).
    */
  def pe(nEntities: Int): Double =
    math.max(0, checked - hits.size).toDouble / nEntities
}

/** Per-query state of the best-first search: the query's per-level cells,
  * their per-level hashes, and the mask-based partial-pruned-set upper
  * bound of Theorem 4.1 / §4.1.
  *
  * Soundness of the pruning rule (see also Theorems 3.1/3.2): at a node N
  * of level `j` with routing index `r` and stored value `V = min over
  * members of sig_p^j[r]`, a level-`l` query cell `c` with `l ≥ j` and
  * `h_r^l(c) < V` cannot be in any member's `seq_p^l` — membership would
  * force `sig_p^l[r] ≤ h_r^l(c)` and thus (Theorem 3.1)
  * `sig_p^j[r] ≤ h_r^l(c) < V ≤ sig_p^j[r]`, a contradiction. Levels
  * `l < j` are left untouched (a coarse overlap can exist through base
  * cells outside the query's trace), matching the paper's Example 4.1
  * where the level-1 term of UB_N12 stays at the parent's value.
  *
  * The artificial entity e_v of Theorem 4.1 then has per-level overlaps
  * equal to the surviving-cell counts, and
  * `UB_N = degree(ov = surv, sa = surv, sb = |seq_q|)`.
  */
final class QueryContext(
    val sp: SpIndex,
    val hasher: CellHasher,
    val measure: Measure,
    val qLevel: Array[Array[Long]], // (l-1) -> sorted distinct level-l cells
) {
  val qSizes: Array[Int] = qLevel.map(_.length)

  /** qHash(l-1)(cellIdx)(u) = h_u^l of the query's level-l cell. */
  val qHash: Array[Array[Array[Int]]] =
    Array.tabulate(sp.m) { li =>
      qLevel(li).map { c =>
        Array.tabulate(hasher.nh)(u => hasher.unit(u, li + 1, Cells.timeOf(c), Cells.unitOf(c)))
      }
    }

  def freshMasks(): Array[Array[Boolean]] =
    Array.tabulate(sp.m)(li => Array.fill(qLevel(li).length)(true))

  /** Child masks after applying a node's pruned set: levels below the
    * node's are shared (never modified deeper), levels ≥ are copied and
    * pruned. A cell is pruned when ANY of the node's `topCoords` certifies
    * absence (Theorem 3.2 over each coordinate).
    */
  def pruneMasks(parent: Array[Array[Boolean]], node: SigNode): Array[Array[Boolean]] = {
    val coords = node.topCoords
    val out = new Array[Array[Boolean]](sp.m)
    var li = 0
    while (li < node.level - 1) { out(li) = parent(li); li += 1 }
    while (li < sp.m) {
      val src = parent(li)
      val dst = new Array[Boolean](src.length)
      var c = 0
      while (c < src.length) {
        var keep = src(c)
        if (keep) {
          val h = qHash(li)(c)
          var i = 0
          while (keep && i < coords.length) {
            if (h(coords(i)) < coords(i + 1)) keep = false
            i += 2
          }
        }
        dst(c) = keep
        c += 1
      }
      out(li) = dst
      li += 1
    }
    out
  }

  def upperBound(masks: Array[Array[Boolean]]): Double = {
    val surv = new Array[Int](sp.m)
    var li = 0
    while (li < sp.m) {
      var c = 0
      while (c < masks(li).length) { if (masks(li)(c)) surv(li) += 1; c += 1 }
      li += 1
    }
    measure.degree(surv, surv, qSizes)
  }
}

object QueryContext {
  def apply(store: TraceSource, hasher: CellHasher, measure: Measure, q: Long): QueryContext = {
    val sp = store.sp
    new QueryContext(sp, hasher, measure, Array.tabulate(sp.m)(li => store.levelCells(q, li + 1)))
  }
}

/** How the best-first search evaluates the leaves it pops. A step scores a
  * leaf's members (the query excluded) at once or holds them to score in a
  * batch; each exact `(entity, degree)` it scores goes to `emit`.
  */
private[core] trait LeafStep {
  def take(leaf: SigNode, emit: (Long, Double) => Unit): Unit

  /** Scores every held leaf; the search calls it before it returns. */
  def flush(emit: (Long, Double) => Unit): Unit = ()
}

/** Best-first top-k search over the MinSigTree (Algorithm 2, §4.2), shared
  * by the driver and Spark paths: candidate queue, mask pruning, upper
  * bounds, the k-best result and early termination. Only the leaf step
  * differs between the paths.
  */
private[core] object BestFirst {

  def search(tree: MinSigTree, ctx: QueryContext, k: Int, step: LeafStep): TopKResult = {
    require(k >= 1)

    final class Cand(val node: SigNode, val masks: Array[Array[Boolean]], val ub: Double)

    // Result: weakest of the current top-k on top, so eviction is O(log k);
    // ties broken by entity id for determinism.
    implicit val weakestFirst: Ordering[(Long, Double)] =
      Ordering.by[(Long, Double), (Double, Long)] { case (e, d) => (-d, e) }
    val result = mutable.PriorityQueue.empty[(Long, Double)]
    def kthDegree: Double = if (result.size < k) -1.0 else result.head._2
    var checked = 0
    val emit = (e: Long, d: Double) => {
      checked += 1
      if (result.size < k) result.enqueue((e, d))
      else if (d > kthDegree || (d == kthDegree && e < result.head._1)) {
        result.dequeue(); result.enqueue((e, d))
      }
    }

    val cands = new PriorityQueue[Cand](new Comparator[Cand] {
      def compare(a: Cand, b: Cand): Int = java.lang.Double.compare(b.ub, a.ub)
    })
    cands.add(new Cand(tree.root, ctx.freshMasks(), 1.0))
    var visited = 0
    var done = false

    while (!done && !cands.isEmpty) {
      val cand = cands.poll()
      visited += 1
      val node = cand.node
      // Early termination (Lines 4-5): the k-th best exact degree already
      // dominates every remaining upper bound.
      if (result.size == k && kthDegree >= cand.ub) done = true
      else if (node.isLeaf) step.take(node, emit)
      else {
        node.children.valuesIterator.foreach { child =>
          val masks = ctx.pruneMasks(cand.masks, child)
          val ub = math.min(cand.ub, ctx.upperBound(masks))
          if (result.size < k || ub > kthDegree)
            cands.add(new Cand(child, masks, ub))
        }
      }
    }
    // Held leaves only raise the k-th degree, so termination still holds.
    step.flush(emit)
    TopKResult(result.toSeq.sortBy { case (e, d) => (-d, e) }, checked, visited)
  }
}

/** Driver top-k search: each popped leaf is fetched (one `prefetch`) and
  * its members are scored against the store at once.
  */
final class TopKSearcher(
    val tree: MinSigTree,
    val store: TraceSource,
    val hasher: CellHasher,
    val measure: Measure,
) {

  /** Exact top-k associated entities to `q` (q excluded from results). */
  def search(q: Long, k: Int): TopKResult = {
    require(store.contains(q), s"query entity $q has no trace")
    val step = new LeafStep {
      def take(leaf: SigNode, emit: (Long, Double) => Unit): Unit = {
        store.prefetch(leaf.entities.filter(_ != q))
        leaf.entities.foreach(e => if (e != q) emit(e, store.degree(measure, e, q)))
      }
    }
    BestFirst.search(tree, QueryContext(store, hasher, measure, q), k, step)
  }
}
