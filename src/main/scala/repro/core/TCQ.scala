package repro.core

import scala.collection.mutable

/** The subinterval-enumeration driver shared by TCD (Algorithm 2) and OTCD
  * (Algorithm 2 + Algorithm 3 pruning).
  *
  * For each anchored start time `ts` (a schedule row) the driver maintains a
  * ''row source'' by incremental head-truncation of the initial `G[Ts, Te]`,
  * and induces the row's cores decrementally: the first core of the row by
  * a TCD operation on a copy of the row source, every subsequent core by a
  * TCD operation on the previously induced core (Theorem 1).
  *
  * The row source is kept peeled: before a row copies it, it is decomposed
  * to the core of `G[ts, Te]`. The k-core is monotone (Lemma 1 with
  * Theorem 1), so core(G[ts, te]) ⊆ core(G[ts, Te]) and the row's cores are
  * unchanged, but non-core edges are peeled once per query instead of once
  * per row. A TEL row source is also rebuilt over fresh ids once it is
  * sparse (see [[TELState]]), so each row copies only core edges.
  *
  * With `pruning = true` the TTI of every induced core feeds Algorithm 3,
  * skipping cells predicted to induce duplicates; the driver then visits
  * only the cells needed to emit each distinct core (§4.3).
  *
  * Link strength `h` (§6.2) is not a query parameter: it belongs to the
  * engine, whose TEL purges sub-`h` pairs as edges are deleted. `maxSpan`
  * (§6.2) keeps only cores whose TTI span `te' - ts'` is at most the bound,
  * e.g. 0 keeps only single-timestamp cores; a negative bound is rejected.
  *
  * Early termination: if the core of `[ts, Te]` is empty then every
  * remaining subinterval's core is empty too (Lemma 1) and the whole run
  * stops; if a smaller cell's core is empty only the row ends.
  */
object TCQ {

  def run(
      engine: CoreEngine,
      k: Int,
      window: Interval,
      maxSpan: Option[Int] = None,
      pruning: Boolean = true): TCQResult = {
    require(k >= 1, s"k must be >= 1, got $k")
    requireSpan(maxSpan)
    val Ts = window.ts
    val Te = window.te
    val sched = new Schedule(Ts, Te)
    val collected = Vector.newBuilder[CoreResult]
    val seen = mutable.HashSet.empty[Interval]
    var induced = 0L
    var duplicates = 0L

    // Rows and columns stop at their last cell rather than stepping past it,
    // so windows that end at Int.MinValue or Int.MaxValue do not wrap.
    val rowSource = engine.initial(Ts, Te)
    var stop = false
    var r = Ts
    while (!stop) {
      rowSource.truncate(r, Te)
      // The row source is copied at the row's first unpruned cell, so a
      // fully pruned row makes no copy.
      var working: CoreState = null
      var rowDone = false
      var c = Te
      while (!rowDone) {
        if (!(pruning && sched.isPruned(r, c))) {
          sched.recordVisit()
          if (working == null) {
            rowSource.decompose(k)
            working = rowSource.copyState()
          }
          working.truncate(r, c)
          working.decompose(k)
          working.snapshot() match {
            case None =>
              // Smaller intervals induce subgraphs (Lemma 1): the row is
              // done; if even [r, Te] is empty the whole schedule is.
              if (c == Te) stop = true
              rowDone = true
            case Some(core) =>
              induced += 1
              if (!seen.add(core.tti)) duplicates += 1
              else if (maxSpan.forall(core.tti.span <= _)) collected += core
              if (pruning) sched.applyRules(r, c, core.tti)
          }
        }
        if (c == r) rowDone = true else c -= 1
      }
      if (r == Te) stop = true else r += 1
    }
    TCQResult(collected.result(), sched.stats(induced, duplicates))
  }

  /** Rejects a negative `maxSpan`, which no core could meet. */
  private[core] def requireSpan(maxSpan: Option[Int]): Unit =
    maxSpan.foreach(s => require(s >= 0, s"maxSpan must be >= 0, got $s"))
}

/** TCD algorithm (Algorithm 2): full enumeration, no inter-core pruning. */
object TCD {
  def run(engine: CoreEngine, k: Int, window: Interval, maxSpan: Option[Int] = None): TCQResult =
    TCQ.run(engine, k, window, maxSpan, pruning = false)
}

/** OTCD algorithm (§4.3): TCD + TTI-based pruning rules. */
object OTCD {
  def run(engine: CoreEngine, k: Int, window: Interval, maxSpan: Option[Int] = None): TCQResult =
    TCQ.run(engine, k, window, maxSpan, pruning = true)
}

/** Brute-force reference: peel every subinterval from scratch with the
  * textbook algorithm ([[KCore]]), dedupe by canonical edge list. This is
  * the correctness oracle for TCD, OTCD, iPHC-Query and the distributed
  * engines — `O(span² |E|)`, test-scale only.
  */
object NaiveTCQ {
  def run(
      edges: IndexedSeq[TemporalEdge],
      k: Int,
      window: Interval,
      h: Int = 1,
      maxSpan: Option[Int] = None): Vector[CoreResult] = {
    require(k >= 1, s"k must be >= 1, got $k")
    TCQ.requireSpan(maxSpan)
    val seen = mutable.HashSet.empty[Vector[(Long, Long, Int)]]
    val out = Vector.newBuilder[CoreResult]
    // Ranges end at their last element, so windows at the Int bounds do not wrap.
    for (ts <- window.ts to window.te; te <- window.te to ts by -1) {
      val sub = edges.filter(e => e.t >= ts && e.t <= te)
      KCore.core(sub, k, h).foreach { core =>
        if (seen.add(core.canonicalKey) && maxSpan.forall(core.tti.span <= _)) out += core
      }
    }
    out.result()
  }
}
