package repro.baseline

import repro.core._
import scala.collection.mutable

/** The paper's baseline: incremental PHC-Query (Algorithm 1, §2.3.2).
  *
  * For every anchored integer start time `ts ∈ [Ts, Te]` it sweeps `te`
  * upward, incrementally growing the vertex set `V` (popping vertices from a
  * core-time min-heap H_v) and the edge set `E` (popping edges from a
  * timestamp min-heap H_e, pushing back edges whose endpoints are not both
  * in `V` yet — the "transfer between H_e and E" that dominates the
  * baseline's cost in the paper's analysis).
  *
  * Distinctness is checked by TTI (Property 2); tests additionally verify
  * canonical-edge-list equality against OTCD and the brute-force oracle.
  */
object IPHCQuery {

  def run(
      edges: IndexedSeq[TemporalEdge],
      index: PHCIndex,
      k: Int,
      window: Interval): TCQResult = {
    require(index.k == k && index.window == window, "index does not match query")
    val Ts = window.ts
    val Te = window.te
    // Edges in [Ts, Te], indexed, for heap entries (id in low 32 bits).
    val winEdges: Array[TemporalEdge] =
      edges.filter(e => e.t >= Ts && e.t <= Te && e.u != e.v).toArray

    val seen = mutable.HashSet.empty[Interval]
    val collected = Vector.newBuilder[CoreResult]
    var induced = 0L
    var duplicates = 0L

    // Ranges end at their last element, so windows at the Int bounds do not wrap.
    for (ts <- Ts to Te) {
      val coreTimes = index.coreTimes(ts)
      if (coreTimes.nonEmpty) {
        // H_v: vertices ordered by core time (line 3), keyed by their index
        // in `anchored` so that any Long vertex id fits the key.
        val anchored = new Array[Long](coreTimes.size)
        val hv = new LongMinHeap(anchored.length + 1)
        var x = 0
        coreTimes.foreach { case (v, ct) =>
          anchored(x) = v
          hv.push((ct.toLong << 32) | x)
          x += 1
        }
        // H_e: edges with timestamps in [ts, Te] ordered by timestamp (line 4).
        val he = new LongMinHeap(winEdges.length + 1)
        var i = 0
        while (i < winEdges.length) {
          if (winEdges(i).t >= ts) he.push((winEdges(i).t.toLong << 32) | i.toLong)
          i += 1
        }
        val vSet = mutable.LongMap.empty[Boolean]
        val eList = mutable.ArrayBuffer.empty[Int] // edge ids in E
        var minT = Int.MaxValue
        var maxT = Int.MinValue
        val pushBack = mutable.ArrayBuffer.empty[Long]
        for (te <- ts to Te) {
          // line 6: pop vertices whose core time is within te
          while (hv.nonEmpty && (hv.peek >>> 32).toInt <= te) {
            vSet(anchored((hv.pop() & 0xFFFFFFFFL).toInt)) = true
          }
          // lines 7-8: pop edges with timestamp within te; keep those whose
          // endpoints are both in V, push the rest back
          pushBack.clear()
          while (he.nonEmpty && (he.peek >>> 32).toInt <= te) {
            val key = he.pop()
            val e = winEdges((key & 0xFFFFFFFFL).toInt)
            if (vSet.getOrElse(e.u, false) && vSet.getOrElse(e.v, false)) {
              eList += (key & 0xFFFFFFFFL).toInt
              if (e.t < minT) minT = e.t
              if (e.t > maxT) maxT = e.t
            } else pushBack += key
          }
          pushBack.foreach(he.push)
          // line 9: collect if non-empty and distinct
          if (eList.nonEmpty) {
            induced += 1
            if (!seen.add(Interval(minT, maxT))) duplicates += 1
            else collected += CoreResult(eList.iterator.map(winEdges(_)).toVector)
          }
        }
      }
    }
    TCQResult(
      collected.result(),
      RunStats(inducedCores = induced, duplicateCores = duplicates,
        totalCells = window.length.toLong * (window.length + 1) / 2))
  }
}
