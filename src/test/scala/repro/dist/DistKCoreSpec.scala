package repro.dist

import repro.core.{KCore, TemporalEdge, TestGraphs}
import repro.SparkSpec

/** DataFrame iterative peeling vs the local reference. */
class DistKCoreSpec extends SparkSpec {

  private def check(es: Vector[TemporalEdge], k: Int, h: Int = 1): Unit = {
    val df = EdgeOps.toDF(spark, es)
    val got = EdgeOps.collectEdges(DistKCore.coreEdges(df, k, h))
    val expected = KCore.core(es, k, h).map(_.edges).getOrElse(Vector.empty)
    assert(got.sortBy(e => (e.t, e.u, e.v)) == expected.sortBy(e => (e.t, e.u, e.v)),
      s"k=$k h=$h")
  }

  test("triangle is a distributed 2-core") {
    check(Vector(TemporalEdge(1, 2, 1), TemporalEdge(2, 3, 2), TemporalEdge(1, 3, 3)), 2)
  }

  test("path peels to nothing at k=2") {
    check(Vector(TemporalEdge(1, 2, 1), TemporalEdge(2, 3, 2), TemporalEdge(3, 4, 3)), 2)
  }

  test("example graph matches local reference at k=2 and k=3") {
    check(TestGraphs.example, 2)
    check(TestGraphs.example, 3)
  }

  test("multi-round peeling cascade (pendant chain into clique)") {
    val clique = (for { i <- 1L to 4L; j <- (i + 1) to 4L } yield TemporalEdge(i, j, 1)).toVector
    val chain = Vector(TemporalEdge(4, 10, 2), TemporalEdge(10, 11, 3), TemporalEdge(11, 12, 4))
    check(clique ++ chain, 2)
    check(clique ++ chain, 3)
  }

  test("random graphs match local reference") {
    for (seed <- 1 to 4; k <- 2 to 3) {
      check(TestGraphs.random(seed * 223, nV = 20, nE = 100, horizon = 10), k)
    }
  }

  test("parallel edges do not inflate degrees") {
    check(Vector(TemporalEdge(1, 2, 1), TemporalEdge(1, 2, 2), TemporalEdge(2, 1, 3)), 2)
  }

  test("self-loops are dropped") {
    check(TestGraphs.example :+ TemporalEdge(7, 7, 2), 2)
  }

  test("link strength h=2 matches local reference") {
    check(TestGraphs.multiEdge, 1, h = 2)
    for (seed <- 1 to 3) {
      check(TestGraphs.random(seed * 227, nV = 8, nE = 80, horizon = 6), 2, h = 2)
    }
  }

  test("link strength h < 1 is rejected with the offending value") {
    val df = EdgeOps.toDF(spark, TestGraphs.example)
    for (h <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](DistKCore.coreEdges(df, 2, h))
      assert(e.getMessage.contains(s"got $h"))
    }
  }

  test("empty input yields empty core") {
    val df = EdgeOps.toDF(spark, Seq.empty)
    assert(DistKCore.coreEdges(df, 2).isEmpty)
    assert(DistKCore.coreVertices(df, 2).isEmpty)
  }

  test("coreVertices matches local reference") {
    val es = TestGraphs.random(229, nV = 20, nE = 120, horizon = 10)
    val df = EdgeOps.toDF(spark, es)
    assert(DistKCore.coreVertices(df, 2) == KCore.coreVertices(es, 2))
    assert(DistKCore.coreVertices(df, 3) == KCore.coreVertices(es, 3))
  }
}
