package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Tests of the iPHC-Query baseline (Algorithm 1) against OTCD and the
  * brute-force oracle.
  */
class IPHCQuerySpec extends AnyFunSuite {

  private def runBaseline(es: Vector[TemporalEdge], k: Int, w: Interval): TCQResult = {
    val idx = PHCIndex.build(es, k, w)
    IPHCQuery.run(es, idx, k, w)
  }

  test("baseline returns the five known cores on the example") {
    val res = runBaseline(TestGraphs.example, 2, TestGraphs.exampleWindow)
    assert(res.count == 5)
    assert(res.cores.map(_.tti).toSet == TestGraphs.exampleDistinctTTIs)
  }

  test("baseline core contents match naive (example)") {
    val res = runBaseline(TestGraphs.example, 2, TestGraphs.exampleWindow)
    val naive = NaiveTCQ.run(TestGraphs.example, 2, TestGraphs.exampleWindow)
    assert(TestGraphs.keySet(res.cores) == TestGraphs.keySet(naive))
  }

  test("baseline == OTCD == naive on random graphs") {
    for (seed <- 1 to 10; k <- 2 to 3) {
      val es = TestGraphs.random(seed * 197 + k, nV = 14, nE = 80, horizon = 10)
      val w = Interval(1, 10)
      val base = runBaseline(es, k, w)
      val otcd = OTCD.run(new TELEngine(es), k, w)
      val naive = NaiveTCQ.run(es, k, w)
      assert(TestGraphs.keySet(base.cores) == TestGraphs.keySet(naive), s"seed=$seed k=$k base")
      assert(TestGraphs.keySet(otcd.cores) == TestGraphs.keySet(naive), s"seed=$seed k=$k otcd")
    }
  }

  test("baseline on sub-windows") {
    for (seed <- 1 to 5) {
      val es = TestGraphs.random(seed * 199, nV = 14, nE = 90, horizon = 15)
      for (w <- Seq(Interval(3, 9), Interval(6, 14))) {
        val base = runBaseline(es, 2, w)
        val naive = NaiveTCQ.run(es, 2, w)
        assert(TestGraphs.keySet(base.cores) == TestGraphs.keySet(naive), s"seed=$seed w=$w")
      }
    }
  }

  test("baseline vertex sets equal OTCD vertex sets per TTI") {
    for (seed <- 1 to 5) {
      val es = TestGraphs.random(seed * 211, nV = 14, nE = 90, horizon = 10)
      val w = Interval(1, 10)
      val base = runBaseline(es, 2, w).byTTI
      val otcd = OTCD.run(new TELEngine(es), 2, w).byTTI
      assert(base.keySet == otcd.keySet, s"seed=$seed")
      base.foreach { case (tti, c) =>
        assert(c.vertices == otcd(tti).vertices, s"seed=$seed tti=$tti")
      }
    }
  }

  test("baseline handles empty results") {
    val path = Vector(TemporalEdge(1, 2, 1), TemporalEdge(2, 3, 2))
    assert(runBaseline(path, 2, Interval(1, 3)).count == 0)
  }

  test("baseline ignores self-loops") {
    val es = TestGraphs.example :+ TemporalEdge(1, 1, 3)
    val res = runBaseline(es, 2, TestGraphs.exampleWindow)
    assert(res.count == 5)
  }

  test("baseline induced-cell count reflects the incremental sweep") {
    val res = runBaseline(TestGraphs.example, 2, TestGraphs.exampleWindow)
    // Every (ts, te) cell with a non-empty core counts as one induction.
    assert(res.stats.inducedCores == res.count + res.stats.duplicateCores)
    assert(res.stats.inducedCores > res.count) // incremental sweep repeats cores
  }
}
