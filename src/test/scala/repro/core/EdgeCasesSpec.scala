package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.{IPHCQuery, PHCIndex}

/** Boundary-condition tests across the whole algorithm stack. */
class EdgeCasesSpec extends AnyFunSuite {

  private val tri = Vector(TemporalEdge(1, 2, 5), TemporalEdge(2, 3, 5), TemporalEdge(1, 3, 5))

  test("single-timestamp window [t,t]") {
    val res = OTCD.run(new TELEngine(tri), 2, Interval(5, 5))
    assert(res.count == 1)
    assert(res.cores.head.tti == Interval(5, 5))
    assert(TestGraphs.keySet(res.cores) == TestGraphs.keySet(NaiveTCQ.run(tri, 2, Interval(5, 5))))
  }

  test("window entirely before the data") {
    val engine = new TELEngine(tri)
    assert(OTCD.run(engine, 2, Interval(1, 3)).count == 0)
    assert(TCD.run(engine, 2, Interval(1, 3)).count == 0)
  }

  test("window entirely after the data") {
    assert(OTCD.run(new TELEngine(tri), 2, Interval(7, 9)).count == 0)
  }

  test("window partially overlapping the data") {
    val es = tri ++ Vector(TemporalEdge(4, 5, 8), TemporalEdge(5, 6, 8), TemporalEdge(4, 6, 8))
    val res = OTCD.run(new TELEngine(es), 2, Interval(6, 10))
    assert(res.count == 1)
    assert(res.cores.head.vertices == Set(4L, 5L, 6L))
  }

  test("k=1 returns maximal subgraphs with at least one neighbour") {
    for (seed <- 1 to 4) {
      val es = TestGraphs.random(seed * 281, nV = 10, nE = 30, horizon = 6)
      val otcd = OTCD.run(new TELEngine(es), 1, Interval(1, 6))
      val naive = NaiveTCQ.run(es, 1, Interval(1, 6))
      assert(TestGraphs.keySet(otcd.cores) == TestGraphs.keySet(naive), s"seed=$seed")
    }
  }

  test("k larger than any possible degree yields nothing") {
    val es = TestGraphs.random(283, nV = 10, nE = 60, horizon = 6)
    assert(OTCD.run(new TELEngine(es), 50, Interval(1, 6)).count == 0)
  }

  test("k < 1 is rejected at the API boundary with the offending value") {
    val engine = new TELEngine(tri)
    for (k <- Seq(0, -1)) {
      // iPHC-Query takes its k from an index, which PHCIndex.build refuses.
      val msgs = Seq(
        intercept[IllegalArgumentException](OTCD.run(engine, k, Interval(1, 6))),
        intercept[IllegalArgumentException](TCD.run(engine, k, Interval(1, 6))),
        intercept[IllegalArgumentException](NaiveTCQ.run(tri, k, Interval(1, 6))),
        intercept[IllegalArgumentException](PHCIndex.build(tri, k, Interval(1, 6))))
      msgs.foreach(e => assert(e.getMessage.contains(s"k must be >= 1, got $k"), e.getMessage))
    }
  }

  test("a negative maxSpan is rejected at the API boundary with the offending value") {
    val engine = new TELEngine(tri)
    for (s <- Seq(-1, Int.MinValue)) {
      val msgs = Seq(
        intercept[IllegalArgumentException](OTCD.run(engine, 2, Interval(1, 6), Some(s))),
        intercept[IllegalArgumentException](TCD.run(engine, 2, Interval(1, 6), Some(s))),
        intercept[IllegalArgumentException](NaiveTCQ.run(tri, 2, Interval(1, 6), maxSpan = Some(s))))
      msgs.foreach(e => assert(e.getMessage.contains(s"maxSpan must be >= 0, got $s"), e.getMessage))
    }
    assert(OTCD.run(engine, 2, Interval(1, 6), Some(0)).count == 1)
  }

  test("empty edge list") {
    assert(OTCD.run(new TELEngine(Vector.empty[TemporalEdge]), 2, Interval(1, 5)).count == 0)
    assert(NaiveTCQ.run(Vector.empty[TemporalEdge], 2, Interval(1, 5)).isEmpty)
  }

  test("duplicate parallel edges at the same timestamp") {
    val es = tri ++ tri // every edge doubled at t=5
    val res = OTCD.run(new TELEngine(es), 2, Interval(4, 6))
    assert(res.count == 1)
    assert(res.cores.head.numEdges == 6)
    assert(TestGraphs.keySet(res.cores) == TestGraphs.keySet(NaiveTCQ.run(es, 2, Interval(4, 6))))
  }

  test("all edges at window boundaries") {
    val es = Vector(TemporalEdge(1, 2, 1), TemporalEdge(2, 3, 10), TemporalEdge(1, 3, 10),
      TemporalEdge(1, 2, 10))
    val res = OTCD.run(new TELEngine(es), 2, Interval(1, 10))
    val naive = NaiveTCQ.run(es, 2, Interval(1, 10))
    assert(TestGraphs.keySet(res.cores) == TestGraphs.keySet(naive))
  }

  test("baseline on single-timestamp window") {
    val idx = PHCIndex.build(tri, 2, Interval(5, 5))
    val res = IPHCQuery.run(tri, idx, 2, Interval(5, 5))
    assert(res.count == 1)
    assert(res.cores.head.vertices == Set(1L, 2L, 3L))
  }

  test("baseline window larger than data range") {
    val idx = PHCIndex.build(tri, 2, Interval(1, 20))
    val res = IPHCQuery.run(tri, idx, 2, Interval(1, 20))
    assert(res.count == 1)
    assert(res.cores.head.tti == Interval(5, 5))
  }

  test("negative-free: timestamps start at arbitrary offsets") {
    val shifted = tri.map(e => e.copy(t = e.t + 1000))
    val res = OTCD.run(new TELEngine(shifted), 2, Interval(1000, 1010))
    assert(res.count == 1)
    assert(res.cores.head.tti == Interval(1005, 1005))
  }

  test("TCQ with window length 1 visits exactly one cell") {
    val res = OTCD.run(new TELEngine(tri), 2, Interval(5, 5))
    assert(res.stats.totalCells == 1)
    assert(res.stats.cellsVisited == 1)
  }

  /** Every algorithm on `es` over `w`, each given 10 s on a daemon thread,
    * returns the one core `es` holds.
    */
  private def allFindOneCore(es: Vector[TemporalEdge], w: Interval): Unit = {
    import TestGraphs.{keySet, within}
    val naive = keySet(within(10)(NaiveTCQ.run(es, 2, w)))
    assert(naive == keySet(KCore.core(es, 2)), s"NaiveTCQ on $w")
    assert(keySet(within(10)(OTCD.run(new TELEngine(es), 2, w)).cores) == naive, s"OTCD on $w")
    assert(keySet(within(10)(TCD.run(new TELEngine(es), 2, w)).cores) == naive, s"TCD on $w")
    val idx = PHCIndex.build(es, 2, w)
    assert(keySet(within(10)(IPHCQuery.run(es, idx, 2, w)).cores) == naive, s"iPHC-Query on $w")
  }

  test("windows ending at Int.MaxValue stop at their last row and column") {
    allFindOneCore(tri.map(_.copy(t = Int.MaxValue)), Interval(Int.MaxValue - 3, Int.MaxValue))
  }

  test("windows starting at Int.MinValue stop at their last row and column") {
    allFindOneCore(tri.map(_.copy(t = Int.MinValue)), Interval(Int.MinValue, Int.MinValue + 3))
  }

  test("a schedule spanning the whole Int range is rejected as too large") {
    val err = intercept[IllegalArgumentException](new Schedule(Int.MinValue, Int.MaxValue))
    assert(err.getMessage.contains("schedule span 4294967296 too large"), err.getMessage)
    val otcd = intercept[IllegalArgumentException](
      OTCD.run(new TELEngine(tri), 2, Interval(Int.MinValue, Int.MaxValue)))
    assert(otcd.getMessage.contains("too large"), otcd.getMessage)
  }

  test("distinct count via TTI equals distinct count via canonical key (many seeds)") {
    for (seed <- 1 to 12) {
      val es = TestGraphs.random(seed * 293, nV = 12, nE = 80, horizon = 8)
      val cores = OTCD.run(new TELEngine(es), 2, Interval(1, 8)).cores
      assert(cores.map(_.tti).distinct.size == cores.map(_.canonicalKey).distinct.size)
    }
  }
}
