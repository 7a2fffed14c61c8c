package repro.baseline

import repro.core.{KCore, Interval, TemporalEdge}
import scala.collection.mutable

/** Core-time index over a query window — the reproduction's stand-in for the
  * paper's PHC-Index (§2.3.1).
  *
  * For coreness bound `k`, anchored start time `ts` and vertex `v`, the
  * ''core time'' `CT(v, ts)` is the smallest `te` such that the coreness of
  * `v` in the projected graph `G[ts, te]`, timestamps dropped, reaches `k`. The
  * iPHC-Query baseline (Algorithm 1) pops vertices in core-time order.
  *
  * The original PHC-Index precomputes core times for every `(k, ts)` over
  * the whole graph lifetime; we build them on demand for the queried window
  * `[Ts, Te]` only. The baseline only ever reads entries with
  * `ts ∈ [Ts, Te]`, `te ≤ Te`, so query-time behaviour is unchanged — only
  * the offline cost shrinks (see DESIGN.md, substitutions). Build time is
  * reported separately and excluded from query latency, the same accounting
  * the paper uses for its precomputed index.
  *
  * Core times are computed per distinct timestamp: for an anchored distinct
  * `ts0`, edges are accumulated batch-by-batch in ascending timestamp order
  * and membership in the k-core is recomputed after each batch; a vertex's
  * core time is the first batch timestamp at which it qualifies (coreness is
  * monotone in `te`, the property the original index exploits).
  */
final class PHCIndex private (
    val k: Int,
    val window: Interval,
    distinctTs: Array[Int],
    perAnchor: Array[Map[Long, Int]]) {

  /** Core times for an arbitrary integer anchor `ts`: identical to those of
    * the smallest distinct timestamp `>= ts` (no edges exist in between).
    * Empty map when no distinct timestamp remains in `[ts, Te]`.
    */
  def coreTimes(ts: Int): Map[Long, Int] = {
    var lo = 0
    var hi = distinctTs.length
    while (lo < hi) { // first index with distinctTs(i) >= ts
      val mid = (lo + hi) >>> 1
      if (distinctTs(mid) < ts) lo = mid + 1 else hi = mid
    }
    if (lo == distinctTs.length) Map.empty else perAnchor(lo)
  }

  def numAnchors: Int = distinctTs.length
  def numEntries: Long = perAnchor.iterator.map(_.size.toLong).sum
}

object PHCIndex {

  /** Builds the window-scoped index; `O(|D|² · |E_window|)` where `D` is the
    * set of distinct timestamps in the window.
    */
  def build(edges: IndexedSeq[TemporalEdge], k: Int, window: Interval): PHCIndex = {
    require(k >= 1, s"k must be >= 1, got $k")
    val inWindow = edges.filter(e => e.t >= window.ts && e.t <= window.te)
    val byTs: Map[Int, IndexedSeq[TemporalEdge]] = inWindow.groupBy(_.t)
    val distinct = byTs.keys.toArray.sorted
    val perAnchor = new Array[Map[Long, Int]](distinct.length)
    var i = 0
    while (i < distinct.length) {
      val ct = mutable.LongMap.empty[Int]
      val acc = mutable.ArrayBuffer.empty[TemporalEdge]
      var j = i
      while (j < distinct.length) {
        acc ++= byTs(distinct(j))
        val core = KCore.coreVertices(acc, k)
        core.foreach(v => if (!ct.contains(v)) ct(v) = distinct(j))
        j += 1
      }
      perAnchor(i) = ct.toMap
      i += 1
    }
    new PHCIndex(k, window, distinct, perAnchor)
  }
}
