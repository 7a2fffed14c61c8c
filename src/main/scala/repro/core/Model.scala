package repro.core

/** An undirected temporal edge: interaction between `u` and `v` at time `t`.
  *
  * Orientation (`u` as source, `v` as destination) is preserved because
  * every engine stores and returns an edge's endpoints as given, but all
  * degree semantics are undirected.
  */
final case class TemporalEdge(u: Long, v: Long, t: Int) {
  /** Canonical undirected endpoint pair (smaller id first). */
  def pair: (Long, Long) = if (u <= v) (u, v) else (v, u)
}

object TemporalEdge {
  /** Packs the canonical pair of `(u, v)` into a single Long key. The key is
    * unique only for ids below 2^31, such as the TEL's dense local ids.
    */
  def pairKey(u: Long, v: Long): Long = {
    val lo = math.min(u, v)
    val hi = math.max(u, v)
    (lo << 32) | hi
  }
}

/** A closed integer time interval `[ts, te]`. */
final case class Interval(ts: Int, te: Int) {
  require(ts <= te, s"empty interval [$ts, $te]")
  def contains(other: Interval): Boolean = ts <= other.ts && other.te <= te
  def span: Int = te - ts
  def length: Int = te - ts + 1
  override def toString: String = s"[$ts,$te]"
}

/** An induced temporal k-core, as a handle: the TTI and the sizes |V| and |E|
  * are fixed when the core is made, while `edges` and `vertices` are built on
  * first read. A TEL snapshot is O(1): it keeps the timeline's ends and the
  * TEL's pair-death clock over arrays it shares with the TEL (see
  * [[TEL.snapshot]]), so a query that reads only the TTI and the sizes, as
  * Table 6 does, builds no edge at all.
  *
  * Identity of a core is its edge multiset; `canonicalKey` sorts the edges so
  * equal cores compare equal regardless of induction order. Per Property 2 of
  * the paper the TTI alone is already a unique key among the cores of one TCQ
  * instance — tests validate that empirically against `canonicalKey`.
  */
final class CoreResult private (
    val tti: Interval,
    val numVertices: Int,
    val numEdges: Int,
    edgesOf: () => Vector[TemporalEdge],
    verticesOf: Vector[TemporalEdge] => Set[Long]) {
  lazy val edges: Vector[TemporalEdge] = edgesOf()
  lazy val vertices: Set[Long] = verticesOf(edges)
  def canonicalKey: Vector[(Long, Long, Int)] =
    edges.map(e => { val (a, b) = e.pair; (a, b, e.t) }).sorted
  override def toString: String = s"CoreResult($tti, |V|=$numVertices, |E|=$numEdges)"
}

object CoreResult {
  /** A core built eagerly (reference peeling, baseline, Spark engine). */
  def apply(tti: Interval, vertices: Set[Long], edges: Vector[TemporalEdge]): CoreResult =
    new CoreResult(tti, vertices.size, edges.size, () => edges, _ => vertices)

  /** A core of `numVertices` vertices and `numEdges` edges that `edges`
    * builds on first read; its vertices are then those edges' endpoints.
    * `edges` runs once, at the first read of `edges` or `vertices`; for a
    * TEL snapshot it is one scan of the snapshot's slot range.
    */
  def deferred(tti: Interval, numVertices: Int, numEdges: Int)(
      edges: () => Vector[TemporalEdge]): CoreResult =
    new CoreResult(tti, numVertices, numEdges, edges,
      _.iterator.flatMap(e => Iterator(e.u, e.v)).toSet)
}

/** The answer to one TCQ instance: all distinct cores, plus run statistics. */
final case class TCQResult(cores: Vector[CoreResult], stats: RunStats) {
  def count: Int = cores.size
  def byTTI: Map[Interval, CoreResult] = cores.map(c => c.tti -> c).toMap
}

/** Counters reported by the enumeration algorithms.
  *
  * @param inducedCores    number of TCD operations that produced a non-empty core
  * @param duplicateCores  induced cores that duplicated an earlier one (0 for OTCD)
  * @param cellsVisited    schedule cells actually processed
  * @param totalCells      `span * (span+1) / 2` cells in the schedule
  * @param prunedPoR/PoU/PoL cells pruned per rule, first-pruner attribution
  * @param triggersPoR/PoU/PoL number of cells whose TTI triggered each rule
  */
final case class RunStats(
    inducedCores: Long = 0,
    duplicateCores: Long = 0,
    cellsVisited: Long = 0,
    totalCells: Long = 0,
    prunedPoR: Long = 0,
    prunedPoU: Long = 0,
    prunedPoL: Long = 0,
    triggersPoR: Long = 0,
    triggersPoU: Long = 0,
    triggersPoL: Long = 0) {
  def prunedTotal: Long = prunedPoR + prunedPoU + prunedPoL
  def prunedPct(rule: Long): Double =
    if (totalCells == 0) 0.0 else 100.0 * rule / totalCells
}
