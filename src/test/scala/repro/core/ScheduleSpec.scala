package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests of the pruning rules (§4.2): direct verification of Lemmas 2–5 by
  * brute force, plus unit tests of the schedule bookkeeping.
  */
class ScheduleSpec extends AnyFunSuite {

  private def coreOf(es: Vector[TemporalEdge], k: Int, w: Interval): Option[CoreResult] =
    KCore.core(es.filter(e => e.t >= w.ts && e.t <= w.te), k)

  test("schedule rejects inverted windows") {
    intercept[IllegalArgumentException](new Schedule(5, 4))
  }

  test("cells start unpruned; visits are counted") {
    val s = new Schedule(1, 4)
    for (r <- 1 to 4; c <- r to 4) assert(!s.isPruned(r, c))
    s.recordVisit(); s.recordVisit()
    assert(s.stats(0, 0).cellsVisited == 2)
    assert(s.totalCells == 10)
  }

  test("PoR marks the cells right of the trigger down to te'") {
    val s = new Schedule(1, 8)
    s.applyRules(2, 8, Interval(2, 5)) // te'=5 < te=8 -> prune [2,7],[2,6],[2,5]
    assert(s.isPruned(2, 7) && s.isPruned(2, 6) && s.isPruned(2, 5))
    assert(!s.isPruned(2, 8) && !s.isPruned(2, 4))
    val st = s.stats(0, 0)
    assert(st.triggersPoR == 1 && st.prunedPoR == 3)
    assert(st.triggersPoU == 0 && st.triggersPoL == 0)
  }

  test("PoU marks full row prefixes for rows ts+1..ts'") {
    val s = new Schedule(1, 6)
    s.applyRules(1, 6, Interval(3, 6)) // ts'=3 > ts=1 -> rows 2..3, cols te..r
    for (r <- 2 to 3; c <- r to 6) assert(s.isPruned(r, c), s"($r,$c)")
    assert(!s.isPruned(4, 6))
    val st = s.stats(0, 0)
    assert(st.triggersPoU == 1 && st.prunedPoU == (5 + 4))
    assert(st.triggersPoR == 0)
  }

  test("PoL marks rows ts'+1..te' at columns te'+1..te") {
    val s = new Schedule(1, 8)
    s.applyRules(4, 8, Interval(5, 6)) // triggers all three rules
    val st = s.stats(0, 0)
    assert(st.triggersPoR == 1 && st.triggersPoU == 1 && st.triggersPoL == 1)
    // PoR: [4,7],[4,6]; PoU: row 5 cols 8..5; PoL: row 6 cols 8,7.
    assert(s.isPruned(4, 7) && s.isPruned(4, 6))
    for (c <- 5 to 8) assert(s.isPruned(5, c))
    assert(s.isPruned(6, 8) && s.isPruned(6, 7) && !s.isPruned(6, 6))
  }

  test("first-pruner attribution: a cell is only counted once") {
    val s = new Schedule(1, 8)
    s.applyRules(4, 8, Interval(5, 6))
    val st1 = s.stats(0, 0)
    s.applyRules(4, 8, Interval(5, 6)) // re-applying marks nothing new
    val st2 = s.stats(0, 0)
    assert(st1.prunedTotal == st2.prunedTotal)
    assert(st2.triggersPoR == 2) // triggers still counted per event
  }

  test("Lemma 2 (PoR): shrinking te within [te', te] preserves the core") {
    for (seed <- 1 to 8) {
      val es = TestGraphs.random(seed * 71, nV = 14, nE = 90, horizon = 10)
      for {
        ts <- 1 to 10; te <- ts to 10
        c <- coreOf(es, 2, Interval(ts, te))
        te2 <- c.tti.te to te
      } {
        val c2 = coreOf(es, 2, Interval(ts, te2))
        assert(c2.exists(_.canonicalKey == c.canonicalKey), s"seed=$seed [$ts,$te] te2=$te2")
        assert(c2.get.tti == c.tti)
      }
    }
  }

  test("Lemma 3 (PoU basis): growing ts within [ts, ts'] preserves the core") {
    for (seed <- 1 to 8) {
      val es = TestGraphs.random(seed * 73, nV = 14, nE = 90, horizon = 10)
      for {
        ts <- 1 to 10; te <- ts to 10
        c <- coreOf(es, 2, Interval(ts, te))
        ts2 <- ts to c.tti.ts
      } {
        val c2 = coreOf(es, 2, Interval(ts2, te))
        assert(c2.exists(_.canonicalKey == c.canonicalKey), s"seed=$seed [$ts,$te] ts2=$ts2")
      }
    }
  }

  test("Lemma 4 (PoU): pruned cells duplicate their upper cells") {
    for (seed <- 1 to 6) {
      val es = TestGraphs.random(seed * 79, nV = 12, nE = 80, horizon = 8)
      for {
        ts <- 1 to 8; te <- ts to 8
        c <- coreOf(es, 2, Interval(ts, te))
        r <- (ts + 1) to c.tti.ts
        col <- ts to te if col >= r
      } {
        val a = coreOf(es, 2, Interval(r, col)).map(_.canonicalKey)
        val b = coreOf(es, 2, Interval(ts, col)).map(_.canonicalKey)
        assert(a == b, s"seed=$seed [$ts,$te] r=$r c=$col")
      }
    }
  }

  test("Lemma 5 (PoL): pruned cells duplicate the cell at column te'") {
    for (seed <- 1 to 6) {
      val es = TestGraphs.random(seed * 83, nV = 12, nE = 80, horizon = 8)
      for {
        ts <- 1 to 8; te <- ts to 8
        c <- coreOf(es, 2, Interval(ts, te))
        r <- (c.tti.ts + 1) to c.tti.te
        col <- (c.tti.te + 1) to te
      } {
        val a = coreOf(es, 2, Interval(r, col)).map(_.canonicalKey)
        val b = coreOf(es, 2, Interval(r, c.tti.te)).map(_.canonicalKey)
        assert(a == b, s"seed=$seed [$ts,$te] r=$r c=$col")
      }
    }
  }
}
