package repro.core

/** The subinterval enumeration schedule of Figure 4: a triangular matrix of
  * cells `(r, c) = [ts, te]` with `Ts <= r <= c <= Te`, traversed row by row
  * and right to left. Implements the three pruning rules of §4.2
  * (Algorithm 3) with per-rule statistics for Table 4.
  *
  * Attribution is first-pruner: a cell already pruned by an earlier trigger
  * is never re-counted (the paper's per-rule percentages in Table 4 sum to
  * the total, implying the same accounting).
  */
final class Schedule(val Ts: Int, val Te: Int) {
  require(Te >= Ts, s"bad window [$Ts,$Te]")
  val span: Long = Te.toLong - Ts + 1
  // 46340² cells is the largest square that fits a JVM array.
  require(span <= 46340, s"schedule span $span too large")

  private val cells = new Array[Boolean]((span * span).toInt) // pruned?

  private var _prunedPoR = 0L
  private var _prunedPoU = 0L
  private var _prunedPoL = 0L
  private var _triggersPoR = 0L
  private var _triggersPoU = 0L
  private var _triggersPoL = 0L
  private var _visited = 0L

  @inline private def idx(r: Int, c: Int): Int = ((r - Ts) * span + (c - Ts)).toInt

  def isPruned(r: Int, c: Int): Boolean = cells(idx(r, c))

  /** Prunes cell `(r, c)`; 1 if it was not pruned yet, so the calling rule
    * counts it, else 0.
    */
  private def mark(r: Int, c: Int): Int = {
    val i = idx(r, c)
    if (cells(i)) 0 else { cells(i) = true; 1 }
  }

  def recordVisit(): Unit = _visited += 1

  /** Algorithm 3: given the TTI `[ts', te']` of the core just induced at
    * cell `[ts, te]`, prune the cells each rule predicts to be duplicates.
    * No loop steps past a window bound, which may be `Int.MinValue` or
    * `Int.MaxValue`.
    */
  def applyRules(ts: Int, te: Int, tti: Interval): Unit = {
    val ts1 = tti.ts
    val te1 = tti.te
    if (te1 < te) { // Rule 1: Pruning-on-the-Right (Lemma 2)
      _triggersPoR += 1
      var c = te1
      while (c < te) { _prunedPoR += mark(ts, c); c += 1 }
    }
    if (ts1 > ts) { // Rule 2: Pruning-on-the-Underside (Lemmas 3–4)
      _triggersPoU += 1
      var r = ts1
      while (r > ts) {
        var c = te
        while (c >= r) { _prunedPoU += mark(r, c); c -= 1 }
        r -= 1
      }
    }
    if (ts1 > ts && te1 < te) { // Rule 3: Pruning-on-the-Left (Lemma 5)
      _triggersPoL += 1
      var r = ts1 + 1
      while (r <= te1) {
        var c = te
        while (c >= te1 + 1) { _prunedPoL += mark(r, c); c -= 1 }
        r += 1
      }
    }
  }

  def totalCells: Long = span * (span + 1) / 2

  def stats(induced: Long, duplicates: Long): RunStats = RunStats(
    inducedCores = induced,
    duplicateCores = duplicates,
    cellsVisited = _visited,
    totalCells = totalCells,
    prunedPoR = _prunedPoR,
    prunedPoU = _prunedPoU,
    prunedPoL = _prunedPoL,
    triggersPoR = _triggersPoR,
    triggersPoU = _triggersPoU,
    triggersPoL = _triggersPoL,
  )
}
