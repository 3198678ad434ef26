package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}

import repro.{Oracle, SparkSpec}
import repro.baseline.BruteForce
import repro.mobility.TraceGen
import repro.spindex.SpIndex

/** DuckDB oracle checks: the Spark degree computation (the quantity every
  * search result is built from) must match an independent SQL
  * implementation of the ADM (u=1, v=1) over the same level cells,
  * exploded into rows.
  */
class BruteForceOracleSpec extends SparkSpec {

  /** The per-entity level cells as the SQL's (entity, level, cell) rows. */
  private def cellRows(levelCells: Dataset[(Long, Array[Array[Long]])]): DataFrame = {
    import spark.implicits._
    levelCells
      .flatMap { case (e, seq) => for (li <- seq.indices; c <- seq(li)) yield (e, li + 1, c) }
      .toDF("entity", "level", "cell")
  }

  /** ADM(u=1, v=1) in DuckDB SQL over the (entity, level, cell) table. */
  private def admSql(q: Long, m: Int): String = {
    val max = (1 to m).map(_ * 0.5).sum
    s"""
       |WITH c AS (
       |  SELECT CAST(entity AS BIGINT) AS entity, CAST(level AS INT) AS level, cell
       |  FROM cells
       |),
       |q AS (SELECT level, cell FROM c WHERE entity = $q),
       |sz AS (SELECT entity, level, COUNT(*) AS s FROM c GROUP BY entity, level),
       |qsz AS (SELECT level, COUNT(*) AS s FROM q GROUP BY level),
       |ov AS (
       |  SELECT c.entity, c.level, COUNT(*) AS o
       |  FROM c JOIN q ON c.level = q.level AND c.cell = q.cell
       |  WHERE c.entity <> $q
       |  GROUP BY c.entity, c.level
       |)
       |SELECT ov.entity AS entity,
       |       SUM(CAST(ov.level AS DOUBLE) * ov.o / (sz.s + qsz.s)) / $max AS degree
       |FROM ov
       |JOIN sz  ON ov.entity = sz.entity AND ov.level = sz.level
       |JOIN qsz ON ov.level = qsz.level
       |GROUP BY ov.entity
       |""".stripMargin
  }

  private def check(side: Int, m: Int, nEntities: Int, horizon: Int, seed: Long, queries: Seq[Long]): Unit = {
    val sp = SpIndex.build(side, m, 2.0, 1.0)
    val cells = TraceGen.syn(spark, side, nEntities, repro.mobility.ImParams(horizon = horizon), seed)
    val levelCells = Cells.levelCells(spark, cells, sp).cache()
    val d = AdmMeasure(sp.m, 1, 1)
    queries.foreach { q =>
      val sparkDf = BruteForce.degreesDf(spark, levelCells, q, d, sp)
      Oracle.assertEquivalent(sparkDf, admSql(q, sp.m), "cells" -> cellRows(levelCells))
    }
    levelCells.unpersist()
  }

  test("Spark ADM degrees match DuckDB SQL (m=2)") {
    check(side = 8, m = 2, nEntities = 25, horizon = 20, seed = 601, queries = Seq(0L, 3L))
  }

  test("Spark ADM degrees match DuckDB SQL (m=3)") {
    check(side = 16, m = 3, nEntities = 30, horizon = 20, seed = 602, queries = Seq(1L, 7L))
  }

  test("Spark ADM degrees match DuckDB SQL (m=4, REAL-surrogate)") {
    val sp = SpIndex.build(16, 4, 2.0, 2.0)
    val cells = TraceGen.realLike(spark, 16, 25, horizon = 30, seed = 603)
    val levelCells = Cells.levelCells(spark, cells, sp).cache()
    val d = AdmMeasure(sp.m, 1, 1)
    Seq(0L, 11L).foreach { q =>
      val sparkDf = BruteForce.degreesDf(spark, levelCells, q, d, sp)
      Oracle.assertEquivalent(sparkDf, admSql(q, sp.m), "cells" -> cellRows(levelCells))
    }
    levelCells.unpersist()
  }

  test("top-k returned by MinSigTree search matches DuckDB's top-k degrees") {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val cells = TraceGen.syn(spark, 16, 40, repro.mobility.ImParams(horizon = 25), 604)
    val levelCells = Cells.levelCells(spark, cells, sp).cache()
    val store = TraceStore.fromCells(spark, cells, sp)
    val d = AdmMeasure(sp.m, 1, 1)
    val h = new AdditiveHasher(sp, 16, 605)
    val tree = MinSigTree.fromCells(spark, cells, sp, h)
    val searcher = new TopKSearcher(tree, store, h, d)
    import spark.implicits._
    val q = 2L
    val k = 5
    val hits = searcher.search(q, k).hits.filter(_._2 > 0)
    // DuckDB's view of the same top-k degrees.
    val duckDegrees = {
      val conn = java.sql.DriverManager.getConnection("jdbc:duckdb:")
      try {
        val st = conn.createStatement
        st.execute("CREATE TABLE cells (entity VARCHAR, level VARCHAR, cell VARCHAR)")
        val ps = conn.prepareStatement("INSERT INTO cells VALUES (?,?,?)")
        cellRows(levelCells).as[(Long, Int, Long)].collect().foreach { case (e, l, c) =>
          ps.setString(1, e.toString); ps.setString(2, l.toString); ps.setString(3, c.toString)
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
        val rs = st.executeQuery(admSql(q, sp.m) + s" ORDER BY degree DESC, entity ASC LIMIT $k")
        Iterator.continually(rs).takeWhile(_.next()).map(_.getDouble("degree")).toList
      } finally conn.close()
    }
    assert(hits.size == duckDegrees.size)
    hits.map(_._2).zip(duckDegrees).foreach { case (a, b) =>
      assert(math.abs(a - b) < 1e-9, s"spark=$a duck=$b")
    }
    levelCells.unpersist()
  }
}
