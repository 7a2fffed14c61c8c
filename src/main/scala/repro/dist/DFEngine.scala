package repro.dist

import org.apache.spark.sql.DataFrame
import repro.core._

/** [[CoreState]] over an immutable edge DataFrame: truncation is a filter,
  * decomposition is [[DistKCore]] iterative peeling, and a snapshot collects
  * the surviving edges. Because DataFrames are immutable, `copyState` is a
  * reference copy — the decremental TCD chain still holds (each step filters
  * the previous step's result, Theorem 1).
  */
final class DFState(private var df: DataFrame, h: Int) extends CoreState {
  override def truncate(ts: Int, te: Int): Unit =
    df = EdgeOps.project(df, ts, te)

  override def decompose(k: Int): Unit =
    df = DistKCore.coreEdges(df, k, h)

  override def snapshot(): Option[CoreResult] = {
    val es = EdgeOps.collectEdges(df)
    if (es.isEmpty) None else Some(CoreResult(es))
  }

  override def copyState(): CoreState = new DFState(df, h)
}

/** [[CoreEngine]] over an edge DataFrame with link-strength bound `h`: the
  * same OTCD schedule driver as the in-memory TEL path (shared pruning
  * logic), with every TCD operation executed as Spark dataflow over edge
  * partitions. Intended for graphs whose TEL exceeds one machine's memory
  * (the paper's own suggestion for billion-edge graphs, §7.2); tests
  * cross-check `TCQ.run(new DFEngine(df, h), ...)` against OTCD on the TEL.
  */
final class DFEngine(edges: DataFrame, h: Int = 1) extends CoreEngine {
  override def initial(ts: Int, te: Int): CoreState =
    new DFState(EdgeOps.project(edges, ts, te).localCheckpoint(true), h)
}
