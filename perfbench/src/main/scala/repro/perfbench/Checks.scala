package repro.perfbench

import repro.core.{CoreResult, Interval, TCQResult, TemporalEdge}
import scala.collection.mutable

/** Output checks. Each returns the problems it found; empty means correct. */
object Checks {

  /** A core is a valid temporal k-core: non-empty, its vertex set is the set
    * of its edges' endpoints, every vertex has at least `k` distinct
    * neighbours inside it, and its TTI is `[min t, max t]` of its edges.
    */
  def validCore(c: CoreResult, k: Int): Option[String] = {
    if (c.edges.isEmpty) return Some(s"core ${c.tti} has no edges")
    val pairs = mutable.LongMap.empty[Unit]
    val degree = mutable.LongMap.empty[Int]
    var lo = Int.MaxValue
    var hi = Int.MinValue
    c.edges.foreach { e =>
      if (!pairs.contains(TemporalEdge.pairKey(e.u, e.v))) {
        pairs(TemporalEdge.pairKey(e.u, e.v)) = ()
        degree(e.u) = degree.getOrElse(e.u, 0) + 1
        degree(e.v) = degree.getOrElse(e.v, 0) + 1
      }
      lo = math.min(lo, e.t); hi = math.max(hi, e.t)
    }
    if (Interval(lo, hi) != c.tti) Some(s"core ${c.tti}: edges span [$lo,$hi]")
    else if (degree.keySet != c.vertices) Some(s"core ${c.tti}: vertex set differs from edge endpoints")
    else degree.collectFirst { case (v, d) if d < k => s"core ${c.tti}: vertex $v has $d < $k neighbours" }
  }

  /** Every core is valid and TTIs are distinct (Property 2). */
  def validResult(r: TCQResult, k: Int): Seq[String] = {
    val dup = r.cores.size - r.cores.map(_.tti).distinct.size
    (if (dup > 0) Seq(s"$dup duplicate TTIs") else Nil) ++ r.cores.flatMap(validCore(_, k))
  }

  /** `validResult` of an answer, if the call returned one. */
  def validAll(r: Option[TCQResult], k: Int): Seq[String] = r.toSeq.flatMap(validResult(_, k))

  /** Order-free summary of a result: each core's TTI with its edge count. */
  def fingerprint(r: TCQResult): Vector[(Int, Int, Int)] =
    r.cores.map(c => (c.tti.ts, c.tti.te, c.numEdges)).sorted

  def ttis(r: TCQResult): Vector[Interval] = r.cores.map(_.tti).sortBy(i => (i.ts, i.te))

  /** Order-free hash of the full content: every core's TTI and its edge
    * multiset, with each edge's endpoints taken unordered.
    */
  def digest(r: TCQResult): Long = r.cores.iterator.map { c =>
    var h = mix(c.tti.ts.toLong << 32 | (c.tti.te & 0xFFFFFFFFL))
    c.edges.foreach(e => h += mix(TemporalEdge.pairKey(e.u, e.v) * 31 + e.t))
    mix(h)
  }.sum

  /** SplitMix64 finaliser. */
  private def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  def expect(cond: Boolean, msg: => String): Seq[String] = if (cond) Nil else Seq(msg)
}
