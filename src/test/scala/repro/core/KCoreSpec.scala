package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Unit tests for the reference k-core routines (textbook peeling). */
class KCoreSpec extends AnyFunSuite {

  private def tri(t: Int = 1) =
    Vector(TemporalEdge(1, 2, t), TemporalEdge(2, 3, t), TemporalEdge(1, 3, t))

  test("triangle is a 2-core") {
    assert(KCore.coreVertices(tri(), 2) == Set(1L, 2L, 3L))
  }

  test("triangle has no 3-core") {
    assert(KCore.coreVertices(tri(), 3).isEmpty)
  }

  test("star graph has no 2-core") {
    val star = (2L to 6L).map(v => TemporalEdge(1, v, 1)).toVector
    assert(KCore.coreVertices(star, 2).isEmpty)
    assert(KCore.coreVertices(star, 1) == (1L to 6L).toSet)
  }

  test("clique K5 is a 4-core") {
    val es = for { i <- 1L to 5L; j <- (i + 1) to 5L } yield TemporalEdge(i, j, 1)
    assert(KCore.coreVertices(es.toVector, 4) == (1L to 5L).toSet)
    assert(KCore.coreVertices(es.toVector, 5).isEmpty)
  }

  test("pendant chain peels away, leaving the clique") {
    val clique = for { i <- 1L to 4L; j <- (i + 1) to 4L } yield TemporalEdge(i, j, 1)
    val chain = Vector(TemporalEdge(4, 10, 1), TemporalEdge(10, 11, 1))
    assert(KCore.coreVertices(clique.toVector ++ chain, 3) == (1L to 4L).toSet)
  }

  test("two disjoint triangles both survive k=2") {
    val es = tri() ++ Vector(TemporalEdge(7, 8, 2), TemporalEdge(8, 9, 2), TemporalEdge(7, 9, 2))
    assert(KCore.coreVertices(es, 2) == Set(1L, 2L, 3L, 7L, 8L, 9L))
  }

  test("parallel edges do not inflate distinct-neighbour degree") {
    // 1-2 has 3 parallel edges; vertex 1 still has degree 1.
    val es = Vector(TemporalEdge(1, 2, 1), TemporalEdge(1, 2, 2), TemporalEdge(2, 1, 3))
    assert(KCore.coreVertices(es, 2).isEmpty)
    assert(KCore.coreVertices(es, 1) == Set(1L, 2L))
  }

  test("self-loops are ignored") {
    val es = tri() :+ TemporalEdge(4, 4, 1)
    assert(KCore.coreVertices(es, 2) == Set(1L, 2L, 3L))
  }

  test("link strength h=2 drops weak pairs before peeling") {
    // Triangle where only (1,2) is doubled: with h=2 everything unravels.
    val es = tri() :+ TemporalEdge(1, 2, 2)
    assert(KCore.coreVertices(es, 2, h = 2).isEmpty)
    assert(KCore.coreVertices(es, 1, h = 2) == Set(1L, 2L))
  }

  test("link strength h=2 keeps a doubled triangle") {
    val es = tri(1) ++ tri(2)
    assert(KCore.coreVertices(es, 2, h = 2) == Set(1L, 2L, 3L))
  }

  test("core() snapshots induced subgraph with TTI") {
    val es = tri(3) :+ TemporalEdge(3, 9, 7)
    val c = KCore.core(es, 2).get
    assert(c.tti == Interval(3, 3))
    assert(c.vertices == Set(1L, 2L, 3L))
    assert(c.edges.toSet == tri(3).toSet)
  }

  test("core() returns None when empty") {
    assert(KCore.core(Vector(TemporalEdge(1, 2, 1)), 2).isEmpty)
    assert(KCore.core(Vector.empty[TemporalEdge], 1).isEmpty)
  }

  test("core() with h excludes weak pairs from the result edges") {
    val es = tri(1) ++ tri(2) :+ TemporalEdge(1, 9, 5)
    val c = KCore.core(es, 2, h = 2).get
    assert(c.vertices == Set(1L, 2L, 3L))
    assert(c.edges.size == 6)
    assert(!c.edges.exists(e => e.u == 9 || e.v == 9))
  }

  test("coreVertices matches a decomposed TEL on random graphs") {
    for (seed <- 1 to 8) {
      val es = TestGraphs.random(seed, nV = 20, nE = 60, horizon = 10)
      for (k <- 1 to 5) {
        val tel = TEL.fromEdges(es)
        tel.decompose(k)
        assert(KCore.coreVertices(es, k) == tel.vertices.toSet, s"seed=$seed k=$k")
      }
    }
  }

  test("k-core is monotone decreasing in k") {
    val es = TestGraphs.random(7, nV = 25, nE = 100, horizon = 10)
    var prev = KCore.coreVertices(es, 1)
    for (k <- 2 to 6) {
      val cur = KCore.coreVertices(es, k)
      assert(cur.subsetOf(prev), s"k=$k")
      prev = cur
    }
  }

  test("every vertex in the k-core has >= k qualified neighbours inside it") {
    for (seed <- 1 to 5; k <- 2 to 4) {
      val es = TestGraphs.random(seed * 31, nV = 18, nE = 70, horizon = 8)
      val core = KCore.coreVertices(es, k)
      val adj = KCore.adjacency(es)
      core.foreach { v =>
        val d = adj(v).count { case (w, _) => core(w) }
        assert(d >= k, s"seed=$seed k=$k v=$v")
      }
    }
  }
}
