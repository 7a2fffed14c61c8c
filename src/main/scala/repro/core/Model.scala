package repro.core

/** An undirected temporal edge: an interaction between `u` and `v` at time
  * `t`. The endpoints are kept in order, `u <= v`, so an edge equals its
  * reverse, `TemporalEdge(9, 2, 1) == TemporalEdge(2, 9, 1)`, and every
  * engine returns edges in this one form.
  */
final case class TemporalEdge private (u: Long, v: Long, t: Int) {
  /** The endpoint pair, smaller id first. */
  def pair: (Long, Long) = (u, v)

  /** This edge at time `t`: the only `copy`, so none reorders the endpoints. */
  def copy(t: Int = this.t): TemporalEdge = new TemporalEdge(u, v, t)
}

object TemporalEdge {
  /** The edge between `a` and `b` at time `t`, endpoints in order. */
  def apply(a: Long, b: Long, t: Int): TemporalEdge =
    if (a <= b) new TemporalEdge(a, b, t) else new TemporalEdge(b, a, t)

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
  * TEL's count of deleted edges over arrays it shares with the TEL (see
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
    edgesOf: () => Vector[TemporalEdge]) {
  lazy val edges: Vector[TemporalEdge] = edgesOf()
  /** The endpoints of the edges. */
  lazy val vertices: Set[Long] = CoreResult.endpoints(edges)
  def canonicalKey: Vector[(Long, Long, Int)] = edges.map(e => (e.u, e.v, e.t)).sorted
  override def toString: String = s"CoreResult($tti, |V|=$numVertices, |E|=$numEdges)"
}

object CoreResult {
  /** The core made of `edges`, built eagerly (reference peeling, baseline,
    * Spark engine): its TTI is `[min t, max t]` of the edges.
    */
  def apply(edges: Vector[TemporalEdge]): CoreResult = {
    require(edges.nonEmpty, "a core has at least one edge")
    val tti = Interval(edges.iterator.map(_.t).min, edges.iterator.map(_.t).max)
    new CoreResult(tti, endpoints(edges).size, edges.size, () => edges)
  }

  /** A core of `numVertices` vertices and `numEdges` edges that `edges`
    * builds on first read. `edges` runs once, at the first read of `edges`
    * or `vertices`; for a TEL snapshot it is one scan of the snapshot's slot
    * range.
    */
  def deferred(tti: Interval, numVertices: Int, numEdges: Int)(
      edges: () => Vector[TemporalEdge]): CoreResult =
    new CoreResult(tti, numVertices, numEdges, edges)

  private def endpoints(edges: Vector[TemporalEdge]): Set[Long] =
    edges.iterator.flatMap(e => Iterator(e.u, e.v)).toSet
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
