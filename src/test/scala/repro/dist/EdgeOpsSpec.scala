package repro.dist

import org.apache.spark.sql.functions._
import repro.core.TestGraphs
import repro.{Oracle, SparkSpec}

/** DataFrame edge transformations, each cross-checked against DuckDB SQL via
  * the Oracle (wrong Catalyst plans surface as result diffs, not "it ran").
  */
class EdgeOpsSpec extends SparkSpec {

  private lazy val edges = TestGraphs.random(314, nV = 30, nE = 400, horizon = 20)
  private lazy val df = EdgeOps.toDF(spark, edges).cache()

  test("toDF has the canonical schema") {
    assert(df.columns.toSeq == Seq("u", "v", "t"))
    assert(df.count() == 400)
  }

  test("projection matches DuckDB window filter") {
    Oracle.assertEquivalent(
      EdgeOps.project(df, 5, 15),
      "SELECT u, v, t FROM edges WHERE CAST(t AS INT) BETWEEN 5 AND 15",
      "edges" -> df)
  }

  test("projection of full range is identity") {
    Oracle.assertEquivalent(
      EdgeOps.project(df, 1, 20),
      "SELECT u, v, t FROM edges",
      "edges" -> df)
  }

  test("pair strength matches DuckDB group-by") {
    Oracle.assertEquivalent(
      EdgeOps.pairStrength(df),
      """SELECT least(CAST(u AS BIGINT), CAST(v AS BIGINT)) AS a,
        |       greatest(CAST(u AS BIGINT), CAST(v AS BIGINT)) AS b,
        |       count(*) AS strength
        |FROM edges WHERE u <> v GROUP BY 1, 2""".stripMargin,
      "edges" -> df)
  }

  test("degrees match DuckDB distinct-neighbour count") {
    Oracle.assertEquivalent(
      EdgeOps.degrees(df),
      """WITH pairs AS (
        |  SELECT DISTINCT least(CAST(u AS BIGINT), CAST(v AS BIGINT)) AS a,
        |                  greatest(CAST(u AS BIGINT), CAST(v AS BIGINT)) AS b
        |  FROM edges WHERE u <> v)
        |SELECT vertex, count(*) AS degree FROM (
        |  SELECT a AS vertex FROM pairs UNION ALL SELECT b AS vertex FROM pairs)
        |GROUP BY vertex""".stripMargin,
      "edges" -> df)
  }

  test("degrees with strength h match DuckDB") {
    Oracle.assertEquivalent(
      EdgeOps.degrees(df, h = 2),
      """WITH pairs AS (
        |  SELECT least(CAST(u AS BIGINT), CAST(v AS BIGINT)) AS a,
        |         greatest(CAST(u AS BIGINT), CAST(v AS BIGINT)) AS b
        |  FROM edges WHERE u <> v GROUP BY 1, 2 HAVING count(*) >= 2)
        |SELECT vertex, count(*) AS degree FROM (
        |  SELECT a AS vertex FROM pairs UNION ALL SELECT b AS vertex FROM pairs)
        |GROUP BY vertex""".stripMargin,
      "edges" -> df)
  }

  test("degrees agree with the local adjacency reference") {
    val local = repro.core.KCore.adjacency(edges)
    val got = EdgeOps.degrees(df).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    local.foreach { case (v, nbrs) =>
      assert(got(v) == nbrs.size.toLong, s"vertex $v")
    }
    assert(got.size == local.size)
  }

  test("collectEdges round-trips") {
    val back = EdgeOps.collectEdges(df)
    assert(back.sortBy(e => (e.t, e.u, e.v)) == edges.sortBy(e => (e.t, e.u, e.v)))
  }

  test("projection count matches DuckDB aggregate") {
    Oracle.assertEquivalent(
      EdgeOps.project(df, 3, 9).agg(count(lit(1)) as "n"),
      "SELECT count(*) AS n FROM edges WHERE CAST(t AS INT) BETWEEN 3 AND 9",
      "edges" -> df)
  }

  test("oracle catches wrong results") {
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        EdgeOps.project(df, 3, 9).agg((count(lit(1)) + 1) as "n"),
        "SELECT count(*) AS n FROM edges WHERE CAST(t AS INT) BETWEEN 3 AND 9",
        "edges" -> df)
    }
    assert(e.getMessage.contains("result mismatch"))
  }
}
