package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

/** Unit tests for the core model types. */
class ModelSpec extends AnyFunSuite {

  test("pairKey is symmetric") {
    assert(TemporalEdge.pairKey(3, 7) == TemporalEdge.pairKey(7, 3))
  }

  test("pairKey is injective on canonical pairs (property)") {
    val ids = Gen.chooseNum(0L, Int.MaxValue.toLong - 1)
    val prop = Prop.forAll(ids, ids, ids, ids) { (a, b, c, d) =>
      val k1 = TemporalEdge.pairKey(a, b)
      val k2 = TemporalEdge.pairKey(c, d)
      (k1 == k2) == (Set(a, b) == Set(c, d) || (a == b && c == d && a == c))
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(result.passed, result.status.toString)
  }

  test("pair orders endpoints") {
    assert(TemporalEdge(9, 2, 1).pair == ((2L, 9L)))
    assert(TemporalEdge(2, 9, 1).pair == ((2L, 9L)))
  }

  test("an edge equals its reverse and stores its endpoints in order") {
    assert(TemporalEdge(9, 2, 1) == TemporalEdge(2, 9, 1))
    assert(TemporalEdge(9, 2, 1).hashCode == TemporalEdge(2, 9, 1).hashCode)
    val TemporalEdge(u, v, t) = TemporalEdge(9, 2, 1)
    assert((u, v, t) == ((2L, 9L, 1)))
    assert(TemporalEdge(9, 2, 1) != TemporalEdge(2, 9, 2))
    assert(Set(TemporalEdge(9, 2, 1), TemporalEdge(2, 9, 1)).size == 1)
  }

  test("copy(t = ...) keeps the endpoints in order") {
    val e = TemporalEdge(9, 2, 1).copy(t = 5)
    assert(e.u == 2 && e.v == 9 && e.t == 5)
    assert(e == TemporalEdge(2, 9, 5) && e.copy() == e)
  }

  test("Interval rejects inverted bounds") {
    intercept[IllegalArgumentException](Interval(5, 4))
  }

  test("Interval containment and span") {
    assert(Interval(1, 10).contains(Interval(3, 7)))
    assert(Interval(1, 10).contains(Interval(1, 10)))
    assert(!Interval(2, 10).contains(Interval(1, 10)))
    assert(Interval(3, 7).span == 4)
    assert(Interval(3, 7).length == 5)
  }

  test("canonicalKey is order-independent") {
    val a = CoreResult(Vector(TemporalEdge(1, 2, 1), TemporalEdge(3, 2, 2)))
    val b = CoreResult(Vector(TemporalEdge(2, 3, 2), TemporalEdge(2, 1, 1)))
    assert(a.canonicalKey == b.canonicalKey)
  }

  test("an eager core derives its TTI and vertices from its edges") {
    val c = CoreResult(Vector(TemporalEdge(7, 2, 4), TemporalEdge(3, 2, 9), TemporalEdge(2, 7, 6)))
    assert(c.tti == Interval(4, 9))
    assert(c.vertices == Set(2L, 3L, 7L) && c.numVertices == 3 && c.numEdges == 3)
    intercept[IllegalArgumentException](CoreResult(Vector.empty))
  }

  test("RunStats percentage math") {
    val s = RunStats(totalCells = 200, prunedPoR = 2, prunedPoU = 100, prunedPoL = 48)
    assert(s.prunedTotal == 150)
    assert(math.abs(s.prunedPct(s.prunedTotal) - 75.0) < 1e-9)
    assert(RunStats().prunedPct(5) == 0.0)
  }
}
