package repro.core

/** A mutable temporal-graph state that supports the TCD operation.
  *
  * The enumeration driver ([[TCQ]]) is engine-agnostic: the paper's TEL is
  * the production engine ([[TELState]]), and `repro.dist.DFEngine` plugs a
  * Spark DataFrame state into the same driver, so the pruning logic is
  * shared and cross-checked between the two.
  */
trait CoreState {
  /** Truncation: drop edges with timestamps outside `[ts, te]`. */
  def truncate(ts: Int, te: Int): Unit

  /** Decomposition: peel vertices with fewer than `k` qualified neighbours. */
  def decompose(k: Int): Unit

  /** Current graph as a core result; None when empty. */
  def snapshot(): Option[CoreResult]

  /** Independent deep copy of the current state. */
  def copyState(): CoreState
}

/** Factory for the initial state `G[Ts,Te]` of a TCQ run. */
trait CoreEngine {
  /** Projected (truncated, not decomposed) graph over `[ts, te]`. */
  def initial(ts: Int, te: Int): CoreState
}

/** [[CoreState]] over the paper's TEL. A state that is copied (TCQ's row
  * source) first replaces its TEL by a `copyRange` over the whole timeline
  * once fewer than half of its edge slots are alive, so each copy's vertex
  * and pair arrays hold mostly live entries, and its timeline scans pass
  * few dead slots. As with array doubling, a rebuild
  * follows at least as many deletions as it copies edges, so it costs O(1)
  * amortised per deleted edge.
  */
final class TELState(initial: TEL) extends CoreState {
  private var current = initial

  /** The TEL this state holds now. */
  def tel: TEL = current

  override def truncate(ts: Int, te: Int): Unit = current.truncate(ts, te)
  override def decompose(k: Int): Unit = current.decompose(k)
  override def snapshot(): Option[CoreResult] = current.snapshot()
  override def copyState(): CoreState = {
    if (current.sparse) current = current.copyRange(Int.MinValue, Int.MaxValue)
    new TELState(current.copy())
  }
}

/** [[CoreEngine]] over a master TEL, truncating copies of it per query
  * window (§5.2: the algorithm "starts to work on a copy of TEL(G[Ts,Te])").
  * Queries never mutate the master, so it can keep growing by `addEdge`
  * between queries (§6.1). The master's link strength `h` (§6.2) applies to
  * every query on this engine.
  */
final class TELEngine(val master: TEL) extends CoreEngine {
  /** Builds the master TEL of `edges` with link-strength bound `h`. */
  def this(edges: IndexedSeq[TemporalEdge], h: Int = 1) = this(TEL.fromEdges(edges, h))

  override def initial(ts: Int, te: Int): CoreState =
    new TELState(master.copyRange(ts, te))
}
