package repro.core

import scala.collection.mutable

import repro.analysis.Metrics
import repro.spindex.SpIndex

/** Result of a top-k search.
  *
  * @param hits    up to k (entity, degree) pairs, degree desc, entity asc
  * @param checked entities whose exact degree was computed (excl. query)
  * @param nodesVisited MinSigTree nodes popped from the candidate queue
  */
final case class TopKResult(hits: Seq[(Long, Double)], checked: Int, nodesVisited: Int) {

  /** Pruning effectiveness per Definition 5.1 ([[repro.analysis.Metrics.pe]])
    * with k = the number of hits.
    */
  def pe(nEntities: Int): Double = Metrics.pe(checked, hits.size, nEntities)
}

/** Per-query state of the best-first search: the query's per-level cells,
  * per-query sorted-hash prefix tables over them, and the mask-based
  * partial-pruned-set upper bound of Theorem 4.1 / §4.1.
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
  *
  * A mask is one `Array[Long]` bitset over the query cells of every level:
  * bit `c` of level `l` (cell `qLevel(l-1)(c)`) is bit `c & 63` of word
  * `wordOffset(l-1) + (c >>> 6)`. A level with `C` cells has
  * `W = max(1, ⌈C/64⌉)` words.
  *
  * Why a coordinate's pruned set is a prefix: for one coordinate `u` the
  * cells a node prunes are those with `h_u(c) < V`. With the level's cells
  * sorted by `h_u`, these are exactly the first `pos` ranks, where `pos` is
  * the number of hashes below `V` (a binary search). Cells of equal hash are
  * all below `V` or all at or above it, so the order among ties is
  * irrelevant.
  *
  * Tables, per level with `C` cells and `W` words, each flattened over the
  * `n_h` coordinates (`u`-major):
  *  - `sortedHash`: the `C` values `h_u(c)` in ascending order (`Int`);
  *  - `rankCell`: the cell at each rank, i.e. the sort permutation (`Int`);
  *  - `prefix`: a bitset of the ranks below `j·W` for every checkpoint
  *    `j = 0 .. ⌊C/W⌋` (`⌊C/W⌋+1` checkpoints of `W` words).
  * Pruning `(u, V)` clears checkpoint `⌊pos/W⌋` with AND-NOT and then the
  * fewer than `W` ranks left up to `pos` from the permutation: O(log C + W)
  * per coordinate. The checkpoints hold about `C + W` longs, so a level
  * costs about `n_h·(C + W)` longs plus `2·n_h·C` ints, linear in `C`; for
  * `C ≤ 64` (`W = 1`) the checkpoints are a full prefix table.
  */
final class QueryContext(
    val sp: SpIndex,
    val hasher: CellHasher,
    val measure: Measure,
    val qLevel: Array[Array[Long]], // (l-1) -> sorted distinct level-l cells
) {
  val qSizes: Array[Int] = qLevel.map(_.length)

  private val words: Array[Int] = qSizes.map(c => math.max(1, (c + 63) >>> 6))
  // Words of one coordinate's checkpoints: ⌊C/W⌋+1 checkpoints of W words.
  private val checkpointWords: Array[Int] =
    Array.tabulate(sp.m)(li => (qSizes(li) / words(li) + 1) * words(li))

  /** Level `l`'s words in a mask are `wordOffset(l-1) until wordOffset(l)`. */
  val wordOffset: Array[Int] = words.scanLeft(0)(_ + _)

  private val sortedHash = new Array[Array[Int]](sp.m)
  private val rankCell = new Array[Array[Int]](sp.m)
  private val prefix = new Array[Array[Long]](sp.m)

  locally {
    val nh = hasher.nh
    var li = 0
    while (li < sp.m) {
      val cells = qLevel(li)
      val c = cells.length
      val w = words(li)
      val cpWords = checkpointWords(li)
      val hash = cells.map { cell =>
        Array.tabulate(nh)(u => hasher.unit(u, li + 1, Cells.timeOf(cell), Cells.unitOf(cell)))
      }
      val hs = new Array[Int](nh * c)
      val rc = new Array[Int](nh * c)
      val px = new Array[Long](nh * cpWords)
      val keys = new Array[Long](c)
      var u = 0
      while (u < nh) {
        var i = 0
        while (i < c) { keys(i) = (hash(i)(u).toLong << 32) | i; i += 1 }
        java.util.Arrays.sort(keys)
        val base = u * c
        i = 0
        while (i < c) {
          hs(base + i) = (keys(i) >> 32).toInt
          rc(base + i) = keys(i).toInt
          i += 1
        }
        // Checkpoint j is checkpoint j-1 plus the ranks [(j-1)·W, j·W).
        val cp = u * cpWords
        var j = w
        while (j < cpWords) {
          System.arraycopy(px, cp + j - w, px, cp + j, w)
          var r = j - w
          while (r < j) { val cell = rc(base + r); px(cp + j + (cell >>> 6)) |= 1L << cell; r += 1 }
          j += w
        }
        u += 1
      }
      sortedHash(li) = hs
      rankCell(li) = rc
      prefix(li) = px
      li += 1
    }
  }

  /** The root's mask: every query cell of every level survives. */
  def freshMasks(): Array[Long] = {
    val out = new Array[Long](wordOffset(sp.m))
    var li = 0
    while (li < sp.m) {
      val full = qSizes(li) >>> 6
      java.util.Arrays.fill(out, wordOffset(li), wordOffset(li) + full, -1L)
      if ((qSizes(li) & 63) != 0) out(wordOffset(li) + full) = (1L << qSizes(li)) - 1
      li += 1
    }
    out
  }

  /** Child mask after applying a node's pruned set: levels below the
    * node's are copied unchanged, levels ≥ lose every cell that ANY of the
    * node's `topCoords` certifies absent (Theorem 3.2 over each
    * coordinate). A level stops once none of its cells survive.
    */
  def pruneMasks(parent: Array[Long], node: SigNode): Array[Long] = {
    val coords = node.topCoords
    val out = parent.clone()
    var li = node.level - 1
    while (li < sp.m) {
      val c = qSizes(li)
      val w = words(li)
      val off = wordOffset(li)
      val cpWords = checkpointWords(li)
      val hs = sortedHash(li)
      val rc = rankCell(li)
      val px = prefix(li)
      var live = anySet(out, off, w)
      var i = 0
      while (live && i < coords.length) {
        val base = coords(i) * c
        val v = coords(i + 1)
        // pos = number of cells with h_u < V: the pruned prefix.
        var lo = 0
        var hi = c
        while (lo < hi) {
          val mid = (lo + hi) >>> 1
          if (hs(base + mid) < v) lo = mid + 1 else hi = mid
        }
        if (lo > 0) {
          val cp = coords(i) * cpWords + lo / w * w
          var k = 0
          while (k < w) { out(off + k) &= ~px(cp + k); k += 1 }
          var r = lo / w * w
          while (r < lo) { val cell = rc(base + r); out(off + (cell >>> 6)) &= ~(1L << cell); r += 1 }
          live = anySet(out, off, w)
        }
        i += 2
      }
      li += 1
    }
    out
  }

  private def anySet(mask: Array[Long], off: Int, w: Int): Boolean = {
    var k = 0
    while (k < w && mask(off + k) == 0L) k += 1
    k < w
  }

  def upperBound(mask: Array[Long]): Double = {
    val surv = new Array[Int](sp.m)
    var li = 0
    while (li < sp.m) {
      var k = wordOffset(li)
      while (k < wordOffset(li + 1)) { surv(li) += java.lang.Long.bitCount(mask(k)); k += 1 }
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

/** The answer rule of Algorithm 2 (Lines 4–5), shared with the §6.2
  * baseline: the k best entities by degree, ties to the lower id, and a stop
  * once the k-th degree reaches the next upper bound.
  */
private[repro] final class TopKCollector(k: Int) {
  require(k >= 1)
  // The answer order; the heap keeps the weakest of the k best on top.
  private val order = Ordering.by[(Long, Double), (Double, Long)] { case (e, d) => (-d, e) }
  private val best = mutable.PriorityQueue.empty[(Long, Double)](order)
  private var nChecked = 0

  def checked: Int = nChecked
  def full: Boolean = best.size == k
  def kth: Double = if (full) best.head._2 else -1.0

  def offer(e: Long, d: Double): Unit = {
    nChecked += 1
    if (!full) best.enqueue((e, d))
    // Below the k-th degree nothing enters: skip the tuple and the ordering.
    else if (d >= best.head._2 && order.lt((e, d), best.head)) { best.dequeue(); best.enqueue((e, d)) }
  }

  /** Nothing of bound `ub` or below can enter the answer. */
  def canStop(ub: Double): Boolean = full && kth >= ub
  def admits(ub: Double): Boolean = !full || ub > kth

  def result(nodesVisited: Int): TopKResult = TopKResult(best.toSeq.sorted(order), nChecked, nodesVisited)
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
  * bounds, and a `TopKCollector` for the answer. Only the leaf step differs
  * between the paths. The candidate queue is the JDK's `PriorityQueue`,
  * highest upper bound first by `java.lang.Double.compare`.
  */
private[core] object BestFirst {

  /** A queued node with its surviving-cell mask and upper bound. */
  private final class Cand(val node: SigNode, val mask: Array[Long], val ub: Double)

  def search(tree: MinSigTree, ctx: QueryContext, k: Int, step: LeafStep): TopKResult = {
    val out = new TopKCollector(k)
    val emit: (Long, Double) => Unit = out.offer
    val cands = new java.util.PriorityQueue[Cand]((a, b) => java.lang.Double.compare(b.ub, a.ub))
    cands.add(new Cand(tree.root, ctx.freshMasks(), 1.0))
    var visited = 0
    var done = false

    while (!done && !cands.isEmpty) {
      val cand = cands.poll()
      visited += 1
      // Early termination (Lines 4-5): the k-th best exact degree already
      // dominates every remaining upper bound.
      if (out.canStop(cand.ub)) done = true
      else if (cand.node.isLeaf) step.take(cand.node, emit)
      else {
        cand.node.children.valuesIterator.foreach { child =>
          val childMask = ctx.pruneMasks(cand.mask, child)
          val ub = math.min(cand.ub, ctx.upperBound(childMask))
          if (out.admits(ub)) cands.add(new Cand(child, childMask, ub))
        }
      }
    }
    // Held leaves only raise the k-th degree, so termination still holds.
    step.flush(emit)
    out.result(visited)
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
