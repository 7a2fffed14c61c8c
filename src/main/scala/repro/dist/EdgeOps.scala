package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.TemporalEdge

/** DataFrame (Catalyst) transformations over temporal edge sets.
  *
  * Schema: `u: long, v: long, t: int` — one row per temporal edge, parallel
  * edges allowed, undirected semantics. These are the dataflow building
  * blocks of the reproduction: projection `G[ts,te]`, link strength and
  * distinct-neighbour degrees. Every operator here is cross-checked against
  * DuckDB SQL by the Oracle tests.
  */
object EdgeOps {

  /** Creates an edge DataFrame from in-memory edges. */
  def toDF(spark: SparkSession, edges: Seq[TemporalEdge]): DataFrame = {
    import spark.implicits._
    edges.map(e => (e.u, e.v, e.t)).toDF("u", "v", "t")
  }

  /** Projection `G[ts,te]`: keep edges with timestamps inside the window. */
  def project(edges: DataFrame, ts: Int, te: Int): DataFrame =
    edges.where(col("t") >= ts && col("t") <= te)

  /** Canonical undirected pairs with link strength (parallel-edge count). */
  def pairStrength(edges: DataFrame): DataFrame =
    edges
      .select(least(col("u"), col("v")) as "a", greatest(col("u"), col("v")) as "b")
      .where(col("a") =!= col("b"))
      .groupBy("a", "b")
      .agg(count(lit(1)) as "strength")

  /** Distinct-neighbour degree per vertex, counting only neighbours linked
    * by at least `h` parallel edges (h = 1 is the plain degree).
    */
  def degrees(edges: DataFrame, h: Int = 1): DataFrame = {
    val pairs = pairStrength(edges).where(col("strength") >= h)
    pairs
      .select(col("a") as "vertex")
      .unionAll(pairs.select(col("b") as "vertex"))
      .groupBy("vertex")
      .agg(count(lit(1)) as "degree")
  }

  /** Collects an edge DataFrame back into memory (test/driver use). */
  def collectEdges(edges: DataFrame): Vector[TemporalEdge] =
    edges.select("u", "v", "t").collect().iterator
      .map(r => TemporalEdge(r.getLong(0), r.getLong(1), r.getInt(2)))
      .toVector
}
