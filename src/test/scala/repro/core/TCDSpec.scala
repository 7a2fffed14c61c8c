package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests of the temporal core decomposition operation (§3.1): Lemma 1,
  * Theorem 1, and decremental-vs-from-scratch equivalence.
  */
class TCDSpec extends AnyFunSuite {

  test("Lemma 1: core of a subinterval is a subgraph of the core of the superinterval") {
    for (seed <- 1 to 10) {
      val es = TestGraphs.random(seed * 11, nV = 18, nE = 90, horizon = 12)
      val outer = KCore.core(es.filter(e => e.t >= 2 && e.t <= 11), 2)
      val inner = KCore.core(es.filter(e => e.t >= 4 && e.t <= 9), 2)
      (outer, inner) match {
        case (Some(o), Some(i)) =>
          assert(i.vertices.subsetOf(o.vertices), s"seed=$seed")
          assert(i.edges.toSet.subsetOf(o.edges.toSet), s"seed=$seed")
        case (None, Some(_)) => fail(s"seed=$seed: inner core exists without outer")
        case _ => ()
      }
    }
  }

  test("Theorem 1: TCD from a previous core equals decomposition from scratch") {
    for (seed <- 1 to 12; k <- 2 to 3) {
      val es = TestGraphs.random(seed * 19, nV = 16, nE = 80, horizon = 12)
      // From scratch over [4, 9]:
      val direct = KCore.core(es.filter(e => e.t >= 4 && e.t <= 9), k)
      // Decrementally: first induce core over [2, 11], then TCD to [4, 9].
      val t = TEL.fromEdges(es)
      t.tcd(k, 2, 11)
      t.tcd(k, 4, 9)
      assert(t.snapshot().map(_.canonicalKey) == direct.map(_.canonicalKey), s"seed=$seed k=$k")
    }
  }

  test("Theorem 1 holds along a whole decremental chain") {
    for (seed <- 1 to 6) {
      val es = TestGraphs.random(seed * 23, nV = 15, nE = 100, horizon = 10)
      val t = TEL.fromEdges(es)
      t.truncate(1, 10)
      for (te <- 10 to 1 by -1) {
        t.tcd(2, 1, te)
        val direct = KCore.core(es.filter(e => e.t >= 1 && e.t <= te), 2)
        assert(t.snapshot().map(_.canonicalKey) == direct.map(_.canonicalKey),
          s"seed=$seed te=$te")
      }
    }
  }

  test("TCD chain over start times (row heads)") {
    for (seed <- 1 to 6) {
      val es = TestGraphs.random(seed * 29, nV = 15, nE = 100, horizon = 10)
      val t = TEL.fromEdges(es)
      for (ts <- 1 to 10) {
        t.truncate(ts, 10) // row-source maintenance: head truncation only
        val c = t.copy()
        c.decompose(2)
        val direct = KCore.core(es.filter(e => e.t >= ts && e.t <= 10), 2)
        assert(c.snapshot().map(_.canonicalKey) == direct.map(_.canonicalKey),
          s"seed=$seed ts=$ts")
      }
    }
  }

  test("paper Figure 2 analogue: truncation then peeling cascade") {
    // Pentagon 1-2-3-4-5 over [1,5] plus chords making {1,2,3} a triangle @6.
    val es = Vector(
      TemporalEdge(1, 2, 1), TemporalEdge(2, 3, 2), TemporalEdge(3, 4, 3),
      TemporalEdge(4, 5, 4), TemporalEdge(5, 1, 5), TemporalEdge(1, 3, 6))
    val t = TEL.fromEdges(es)
    t.tcd(2, 1, 6)
    assert(t.snapshot().get.vertices == Set(1L, 2L, 3L, 4L, 5L)) // cycle + chord
    // Now restrict to [1,3]: path 1-2-3-4 plus nothing else -> unravels.
    t.tcd(2, 1, 3)
    assert(t.isEmpty)
  }

  test("TCD on the hand-analyzed example: [1,5] -> [2,4]") {
    val t = TEL.fromEdges(TestGraphs.example)
    t.tcd(2, 1, 5)
    assert(t.numAliveEdges == 7)
    t.tcd(2, 2, 4)
    // [2,4] edges: (2,3)@2 (1,3)@2 (3,4)@3 (4,5)@3 (3,5)@4; vertices 1,2 peel,
    // leaving triangle 3-4-5.
    val s = t.snapshot().get
    assert(s.vertices == Set(3L, 4L, 5L))
    assert(s.tti == Interval(3, 4))
  }

  test("TCD algorithm equals naive enumeration (fixed example)") {
    val res = TCD.run(new TELEngine(TestGraphs.example), 2, TestGraphs.exampleWindow)
    val naive = NaiveTCQ.run(TestGraphs.example, 2, TestGraphs.exampleWindow)
    assert(TestGraphs.keySet(res.cores) == TestGraphs.keySet(naive))
    assert(res.cores.map(_.tti).toSet == TestGraphs.exampleDistinctTTIs)
  }

  test("TCD algorithm equals naive enumeration (random graphs)") {
    for (seed <- 1 to 10; k <- 2 to 3) {
      val es = TestGraphs.random(seed * 37, nV = 14, nE = 80, horizon = 10)
      val w = Interval(1, 10)
      val res = TCD.run(new TELEngine(es), k, w)
      val naive = NaiveTCQ.run(es, k, w)
      assert(TestGraphs.keySet(res.cores) == TestGraphs.keySet(naive), s"seed=$seed k=$k")
    }
  }

  test("TCD visits every cell of the schedule (no pruning)") {
    val es = TestGraphs.random(3, nV = 14, nE = 120, horizon = 6)
    val w = Interval(1, 6)
    val res = TCD.run(new TELEngine(es), 1, w)
    // k=1 with a dense graph: no early emptiness, all 21 cells visited.
    assert(res.stats.totalCells == 21)
    assert(res.stats.cellsVisited == 21)
    assert(res.stats.prunedTotal == 0)
  }

  test("TCD induces many duplicates; OTCD prunes most of them away") {
    val es = TestGraphs.example
    val w = TestGraphs.exampleWindow
    val engine = new TELEngine(es)
    val tcd = TCD.run(engine, 2, w)
    val otcd = OTCD.run(engine, 2, w)
    assert(tcd.stats.duplicateCores > otcd.stats.duplicateCores)
    assert(tcd.count == otcd.count)
  }

  test("empty window-wide core stops the whole run early") {
    val es = Vector(TemporalEdge(1, 2, 3)) // single edge: never a 2-core
    val res = TCD.run(new TELEngine(es), 2, Interval(1, 8))
    assert(res.count == 0)
    assert(res.stats.cellsVisited == 1) // only [1,8] probed
  }
}
