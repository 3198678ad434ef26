package repro.bench

import repro.SparkSpec
import repro.exp.Harness

/** Figure 7 (§6.8): indexing cost — (a) build time vs n_h, (b) index size
  * vs n_h.
  *
  * Paper claims: build time grows ~linearly with n_h (signature hashing
  * dominates); index size grows with n_h (finer grouping splits nodes) but
  * stays small relative to the data.
  */
class Fig7IndexingBench extends SparkSpec {

  test("Figure 7: indexing time and index size vs n_h") {
    val (sp, cells) = BenchData.syn
    val nhs = Seq(8, 32, 128, 512)
    val dataBytes = cells.count() * 16 // (entity: 8B, t: 4B, loc: 4B) per record

    // One untimed build warms the JVM and Spark, so the first timed row
    // does not carry the warm-up whether or not another suite ran first.
    Harness.build(spark, sp, cells, nhs.head)
    val rows = nhs.map { nh =>
      val built = Harness.build(spark, sp, cells, nh)
      (nh, built.buildMillis, built.tree.nodeCount, built.tree.leafCount,
       built.tree.approxBytes, built.tree.topSigBytes)
    }

    Harness.printTable(
      "Figure 7 — indexing cost vs n_h [paper: time ~linear in n_h; size grows, stays small]",
      Seq("n_h", "build ms", "nodes", "leaves", "index bytes (§4.1 min)", "(+top-64 coords)", "index/data"),
      rows.map { case (nh, ms, nodes, leaves, bytes, topBytes) =>
        Seq(nh.toString, ms.toString, nodes.toString, leaves.toString, bytes.toString,
          (bytes + topBytes).toString, f"${bytes.toDouble / dataBytes}%.4f")
      })

    // Crisp claims: monotone size growth; time grows with n_h but far less
    // than quadratically (linear + fixed overhead).
    val sizes = rows.map(_._5)
    assert(sizes.zip(sizes.tail).forall { case (a, b) => a <= b }, s"index size should grow: $sizes")
    val t8 = rows.head._2.toDouble
    val t512 = rows.last._2.toDouble
    assert(t512 >= t8, "more hash functions cannot be cheaper")
    assert(t512 < t8 * 64 * 8, s"time growth should be ~linear in n_h: $t8 -> $t512")
    // Size overhead stays a small fraction of the raw data.
    assert(rows.last._5 < dataBytes, "index must be smaller than the data")
  }
}
