package repro.baseline

import java.util.{HashMap => JHashMap}

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{Cells, Measure, TopKCollector, TopKResult, TraceSource}
import repro.spindex.SpIndex

/** The locality/bitmap baseline of §6.2.
  *
  * At each sp-index level, the level-l ST-cells are partitioned into
  * `nClusters` clusters via frequent co-occurrence mining (entity traces as
  * transactions; sampled pairwise co-occurrence counts; union-find over
  * frequent pairs; cells outside any frequent component fall back to a hash
  * assignment). Every entity gets an `m × nClusters`-bit vector (bit =
  * presence in ≥1 cell of that level's cluster); entities are grouped by
  * vector; a query is answered by scanning groups in descending upper-bound
  * order with the same early-termination rule as Algorithm 2.
  *
  * The UB is sound: a zero bit for (level l, cluster i) proves the group's
  * entities share no level-l query cell of cluster i, so the artificial
  * entity built from the surviving query cells dominates every member
  * (Theorem 4.1 reasoning). It is loose in practice because real traces
  * have weak cell locality — the effect §6.7 measures.
  */
final class ClusterBitmapIndex(
    val sp: SpIndex,
    val nClusters: Int,
    clusterMap: Array[JHashMap[java.lang.Long, Integer]], // per level
    val groups: IndexedSeq[(Array[Long], Array[Long])], // (bit words, entities)
) extends Serializable {

  /** Cluster of a level-`level` cell. Cells outside any mined frequent
    * component fall back to a *spatial* assignment (cells of the same
    * spatial unit share a cluster regardless of time) — the §6.2 baseline
    * clusters by locality, and this is exactly why its bit vectors lose
    * temporal resolution and its upper bounds are loose.
    */
  def clusterOf(level: Int, cell: Long): Int =
    ClusterBitmap.clusterOf(clusterMap(level - 1), cell, nClusters)

  /** Global bit position of (level, cluster). */
  def bitOf(level: Int, cluster: Int): Int = (level - 1) * nClusters + cluster

  def bitSet(words: Array[Long], i: Int): Boolean =
    (words(i >> 6) & (1L << (i & 63))) != 0
}

object ClusterBitmap {

  private[baseline] def hashCluster(cell: Long, n: Int): Int = {
    var z = cell * 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    (((z % n) + n) % n).toInt
  }

  /** A cell's cluster: its mined one, else `hashCluster` of its spatial unit. */
  private[baseline] def clusterOf(mined: JHashMap[java.lang.Long, Integer], cell: Long, n: Int): Int = {
    val c = mined.get(cell)
    if (c != null) c.intValue else hashCluster(Cells.unitOf(cell).toLong, n)
  }

  // Pair mining: cells kept per transaction (sampled when longer), the
  // sampling seed, and the most frequent pairs kept per level.
  val MaxCellsPerEntity = 30
  val SampleSeed = 11L
  val MaxPairs = 200000

  /** Mine per-level clusters and build the bitmap index. */
  def build(
      spark: SparkSession,
      cells: DataFrame,
      sp: SpIndex,
      nClusters: Int = 64,
      minSupport: Int = 3,
  ): ClusterBitmapIndex = {
    import spark.implicits._

    // Per-entity per-level cell arrays, reused for mining and vectors.
    val perEntity = Cells.levelCells(spark, cells, sp).persist()

    val clusterMap = Array.fill(sp.m)(new JHashMap[java.lang.Long, Integer])
    for (level <- 1 to sp.m) {
      // Frequent co-occurring cell pairs at this level, sampled per
      // transaction to bound the quadratic blowup.
      val pairs = perEntity
        .flatMap { case (e, byLevel) =>
          val rng = new java.util.SplittableRandom(SampleSeed ^ (e * 31 + level))
          val cs = byLevel(level - 1)
          val sample =
            if (cs.length <= MaxCellsPerEntity) cs
            else Array.fill(MaxCellsPerEntity)(cs(rng.nextInt(cs.length))).distinct
          for {
            i <- sample.indices.iterator
            j <- (i + 1) until sample.length
          } yield (math.min(sample(i), sample(j)), math.max(sample(i), sample(j)))
        }
        .groupByKey(identity)
        .count()
        .filter(_._2 >= minSupport)
        .map { case ((a, b), c) => (a, b, c) }
        .orderBy($"_3".desc, $"_1", $"_2") // a total order, so the cut is repeatable
        .limit(MaxPairs)
        .collect()

      // Union-find over frequent pairs.
      val parent = mutable.HashMap.empty[Long, Long]
      def find(x: Long): Long = {
        var r = x
        while (parent.getOrElse(r, r) != r) r = parent(r)
        var c = x
        while (parent.getOrElse(c, c) != c) { val n = parent(c); parent(c) = r; c = n }
        r
      }
      pairs.foreach { case (a, b, _) =>
        val ra = find(a); val rb = find(b)
        if (ra != rb) parent(rb) = ra
      }
      val members = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
      pairs.iterator.flatMap(p => Iterator(p._1, p._2)).toSet[Long].foreach { c =>
        members.getOrElseUpdate(find(c), mutable.ArrayBuffer.empty) += c
      }
      // Largest components first, ties by smallest cell: the union-find
      // roots (and so the map order) depend on the pair order.
      val largest = members.values.toSeq.sortBy(cs => (-cs.size, cs.min)).take(nClusters)
      largest.zipWithIndex.foreach { case (cs, i) => cs.foreach(c => clusterMap(level - 1).put(c, i)) }
    }

    // Entity bit vectors, grouped by vector.
    val nBits = sp.m * nClusters
    val nWords = (nBits + 63) >> 6
    val bcMaps = spark.sparkContext.broadcast(clusterMap)
    val grouped = perEntity
      .map { case (e, byLevel) =>
        val words = new Array[Long](nWords)
        for (level <- 1 to byLevel.length; cell <- byLevel(level - 1)) {
          val bit = (level - 1) * nClusters + clusterOf(bcMaps.value(level - 1), cell, nClusters)
          words(bit >> 6) |= 1L << (bit & 63)
        }
        (words.mkString(","), words, e)
      }
      .groupByKey(_._1)
      .mapGroups { (_, rows) =>
        val rs = rows.toArray
        (rs.head._2, rs.map(_._3).sorted)
      }
      .collect()
      .toIndexedSeq

    perEntity.unpersist()
    new ClusterBitmapIndex(sp, nClusters, clusterMap, grouped)
  }

  /** Top-k search over the bitmap index: groups are scanned in descending
    * upper-bound order and scored into a `TopKCollector`, the answer rule
    * and early termination of Algorithm 2 (§6.2).
    */
  def search(
      idx: ClusterBitmapIndex,
      store: TraceSource,
      measure: Measure,
      q: Long,
      k: Int,
  ): TopKResult = {
    val out = new TopKCollector(k)
    require(store.contains(q), s"query entity $q has no trace")
    val sp = idx.sp
    val qLevel = Array.tabulate(sp.m)(li => store.levelCells(q, li + 1))
    val qSizes = qLevel.map(_.length)
    // Bit of every query cell, per level.
    val qBit = Array.tabulate(sp.m)(li => qLevel(li).map(c => idx.bitOf(li + 1, idx.clusterOf(li + 1, c))))

    def upperBound(words: Array[Long]): Double = {
      val ov = qBit.map(_.count(idx.bitSet(words, _)))
      measure.degree(ov, ov, qSizes)
    }

    // Groups come in collect order; ties in UB go to the smallest entity id
    // (each group's entities are sorted and disjoint from other groups').
    val ordered = idx.groups
      .map { case (w, es) => (upperBound(w), es) }
      .sortBy { case (ub, es) => (-ub, es.head) }
    var i = 0
    while (i < ordered.size && !out.canStop(ordered(i)._1)) {
      store.prefetch(ordered(i)._2.filter(_ != q))
      ordered(i)._2.foreach(e => if (e != q) out.offer(e, store.degree(measure, e, q)))
      i += 1
    }
    out.result(i)
  }
}
