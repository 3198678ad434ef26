package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.spindex.SpIndex

/** A MinSigTree node (§3.2.2).
  *
  * The full group-level signature (`minSig`, the element-wise min over
  * members' level signatures) is kept; pruning at query time uses its
  * largest `MinSigTree.TopCoords` coordinates, which carry essentially all
  * of the pruning power (the paper's §4.1 discusses exactly this
  * materialization spectrum: full SIG for maximal pruning vs the routing
  * value only for minimal storage — `sigVal` below — and its reported
  * index sizes correspond to the routing-value accounting).
  *
  * @param level   sp-index level of the node (1..m); the virtual root is 0
  * @param routing 0-based routing index (position of the maximal hash value
  *                in members' level-`level` signatures)
  */
final class SigNode(
    val level: Int,
    val routing: Int,
) {
  /** Element-wise min over member entities of `sig_e^level` (length n_h). */
  var minSig: Array[Int] = null
  /** Filled on first use by `topCoords`; volatile so that concurrent
    * queries see a fully built array.
    */
  @volatile private var topCache: Array[Int] = null

  val children: mutable.LinkedHashMap[Int, SigNode] = mutable.LinkedHashMap.empty
  /** Entities stored at this node; non-empty only at leaves (level m). */
  val entities: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty

  def isLeaf: Boolean = children.isEmpty && level > 0

  /** The §4.1 space-optimized materialization: SIG at the routing index. */
  def sigVal: Int = if (minSig == null) Int.MaxValue else minSig(routing)

  /** Tighten the group signature with a new member's level signature. */
  def merge(sig: Array[Int], offset: Int, nh: Int): Unit = {
    if (minSig == null) {
      minSig = java.util.Arrays.copyOfRange(sig, offset, offset + nh)
    } else {
      var u = 0
      while (u < nh) {
        if (sig(offset + u) < minSig(u)) minSig(u) = sig(offset + u)
        u += 1
      }
    }
    topCache = null
  }

  /** The `MinSigTree.TopCoords` largest signature coordinates as flattened
    * (coordinate, value) pairs, value-descending — the pruning working set.
    */
  def topCoords: Array[Int] = {
    var coords = topCache
    if (coords == null) {
      val order = minSig.indices.sortBy(u => -minSig(u)).take(MinSigTree.TopCoords)
      coords = order.flatMap(u => Seq(u, minSig(u))).toArray
      topCache = coords
    }
    coords
  }
}

/** Driver-resident MinSigTree over all entities' signatures, built by
  * Algorithm 1: entities are routed per level by the argmax position of
  * their level signature; each node keeps the min of its members' routed
  * values. Supports incremental and bulk updates (§3.2.3).
  */
final class MinSigTree(val sp: SpIndex, val nh: Int) {

  val root = new SigNode(0, -1)

  /** Routing path (one routing index per level) of each indexed entity,
    * kept to make removal O(m) (paper §3.2.3 step 1).
    */
  val entityPath: mutable.HashMap[Long, Array[Int]] = mutable.HashMap.empty

  def size: Int = entityPath.size

  def nodeCount: Int = {
    def rec(n: SigNode): Int = 1 + n.children.valuesIterator.map(rec).sum
    rec(root) - 1 // exclude virtual root
  }

  def leafCount: Int = {
    def rec(n: SigNode): Int =
      if (n.isLeaf) 1 else n.children.valuesIterator.map(rec).sum
    rec(root)
  }

  /** Insert an entity given its flattened signature. Node signatures are
    * tightened with `min` (bulk-update rule of §3.2.3).
    */
  def insert(entity: Long, sig: Array[Int]): Unit = {
    require(!entityPath.contains(entity), s"entity $entity already indexed")
    require(sig.length == sp.m * nh,
      s"signature of entity $entity has ${sig.length} values, not m·n_h = ${sp.m * nh}")
    val ridx = Signatures.routing(sig, sp.m, nh)._1
    var node = root
    var l = 0
    while (l < sp.m) {
      val child = node.children.getOrElseUpdate(ridx(l), new SigNode(l + 1, ridx(l)))
      child.merge(sig, l * nh, nh)
      node = child
      l += 1
    }
    node.entities += entity
    entityPath(entity) = ridx
  }

  /** Number of signature coordinates used for pruning at query time. */
  def pruneCoords: Int = math.min(nh, MinSigTree.TopCoords)

  /** Remove an entity (§3.2.3 steps 1–2). Node `sigVal`s are left as-is:
    * a stale (smaller) min keeps every pruned set a subset of the true one,
    * so search stays exact, merely with slightly looser pruning.
    */
  def remove(entity: Long): Unit = {
    val ridx = entityPath.remove(entity).getOrElse(
      throw new NoSuchElementException(s"entity $entity not indexed"))
    val path = new Array[SigNode](sp.m + 1)
    path(0) = root
    var l = 0
    while (l < sp.m) { path(l + 1) = path(l).children(ridx(l)); l += 1 }
    val leaf = path(sp.m)
    leaf.entities -= entity
    // Prune now-empty branches bottom-up.
    l = sp.m
    while (l >= 1 && path(l).entities.isEmpty && path(l).children.isEmpty) {
      path(l - 1).children.remove(ridx(l - 1))
      l -= 1
    }
  }

  /** Re-index an entity after its trace changed (§3.2.3 steps 1–4). */
  def update(entity: Long, newSig: Array[Int]): Unit = {
    if (entityPath.contains(entity)) remove(entity)
    insert(entity, newSig)
  }

  /** Approximate size in bytes of the §4.1 space-optimized deployment
    * (routing index + routing value per node, one pointer per entity) —
    * the accounting behind the paper's Figure 7(b).
    */
  def approxBytes: Long = nodeCount.toLong * 8 + size.toLong * 8

  /** Additional bytes when each node retains its top pruning coordinates
    * ((u, value) pairs), the configuration the query benches run with.
    */
  def topSigBytes: Long = nodeCount.toLong * pruneCoords * 8

  /** Flatten to rows (path, level, routing, sigVal, nEntities). */
  def toRows: Seq[(String, Int, Int, Int, Int)] = {
    val out = mutable.ArrayBuffer.empty[(String, Int, Int, Int, Int)]
    def rec(n: SigNode, path: List[Int]): Unit = {
      if (n.level > 0)
        out += ((path.reverse.mkString("/"), n.level, n.routing, n.sigVal, n.entities.size))
      n.children.foreach { case (r, c) => rec(c, r :: path) }
    }
    rec(root, Nil)
    out.toSeq
  }

  /** The index as a DataFrame, for inspection and distributed planning. */
  def nodesDataFrame(spark: SparkSession): DataFrame = {
    import spark.implicits._
    toRows.toDF("path", "level", "routing", "sigval", "nentities")
  }
}

object MinSigTree {

  /** Signature coordinates retained for query-time pruning. The k-th
    * largest coordinate of a group min-signature over traces of length
    * `len` sits near `R·(1−(k/n_h)^(1/len))`, so a few dozen coordinates
    * capture virtually all of the full-SIG pruning power at a fraction of
    * the scan cost.
    */
  val TopCoords = 64

  /** Build end-to-end from a cells DataFrame (Algorithm 1). The signature
    * stage is the data-parallel part; the grouping stage collects the (tiny)
    * per-entity routing vectors and assembles the tree on the driver.
    */
  def fromCells(spark: SparkSession, cells: DataFrame, sp: SpIndex, hasher: CellHasher): MinSigTree = {
    val tree = new MinSigTree(sp, hasher.nh)
    Signatures.compute(spark, cells, sp, hasher).collect().foreach(es => tree.insert(es.entity, es.sig))
    tree
  }

  /** Driver build for unit tests. */
  def fromLocal(sigs: Map[Long, Array[Int]], sp: SpIndex, nh: Int): MinSigTree = {
    val tree = new MinSigTree(sp, nh)
    sigs.toSeq.sortBy(_._1).foreach { case (e, s) => tree.insert(e, s) }
    tree
  }
}
