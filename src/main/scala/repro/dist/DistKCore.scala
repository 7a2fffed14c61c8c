package repro.dist

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed temporal k-core decomposition by iterative peeling over an
  * edge DataFrame (the `distributed_dataflow` mapping of the reproduction):
  * each round computes distinct-neighbour degrees with a shuffle aggregate
  * and anti-joins away edges incident to under-degree vertices, until a
  * fixpoint. `localCheckpoint` truncates the growing lineage each round.
  *
  * Link strength `h` (§6.2): pair strengths never change during peeling
  * (edges are only removed together with an endpoint), so sub-`h` pairs are
  * dropped once up front — equivalent to the TEL purge cascade.
  */
object DistKCore {

  /** Peeling rounds after which `coreEdges` gives up. */
  private val MaxIterations = 1000

  /** Edges of the temporal k-core of `edges` (same schema `u, v, t`). */
  def coreEdges(edges: DataFrame, k: Int, h: Int = 1): DataFrame = {
    require(h >= 1, s"link strength h must be >= 1, got $h")
    var cur = {
      val base =
        if (h == 1) edges.where(col("u") =!= col("v"))
        else {
          val strong = EdgeOps.pairStrength(edges).where(col("strength") >= h).select("a", "b")
          edges.join(
            strong,
            least(col("u"), col("v")) === col("a") && greatest(col("u"), col("v")) === col("b"),
            "left_semi")
        }
      base.localCheckpoint(true)
    }
    var it = 0
    var done = cur.isEmpty
    while (!done && it < MaxIterations) {
      val bad = EdgeOps.degrees(cur).where(col("degree") < k).select("vertex")
      if (bad.isEmpty) done = true
      else {
        cur = cur
          .join(bad, cur("u") === bad("vertex"), "left_anti")
          .join(bad, cur("v") === bad("vertex"), "left_anti")
          .localCheckpoint(true)
        if (cur.isEmpty) done = true
      }
      it += 1
    }
    require(done, s"peeling did not converge within $MaxIterations iterations")
    cur
  }

  /** Vertex set of the temporal k-core. */
  def coreVertices(edges: DataFrame, k: Int, h: Int = 1): Set[Long] = {
    val core = coreEdges(edges, k, h)
    core.select(col("u") as "x").unionAll(core.select(col("v") as "x"))
      .distinct().collect().iterator.map(_.getLong(0)).toSet
  }
}
