package repro.graphgen

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Interval, KCore, OTCD, TELEngine}

/** Tests of the synthetic temporal-graph generator and dataset registry. */
class GraphGenSpec extends AnyFunSuite {

  private val smallSpec = GraphSpec("small", nVertices = 200, horizon = 100,
    communities = 4, communitySize = 8, burstsPerCommunity = 2, maxBurstSpan = 5,
    edgesPerBurst = 60, noiseEdges = 200, seed = 7L)

  test("generator is deterministic in the seed") {
    val a = TemporalGraphGen.generate(smallSpec)
    val b = TemporalGraphGen.generate(smallSpec)
    assert(a.edges == b.edges)
    assert(a.bursts == b.bursts)
  }

  test("different seeds give different graphs") {
    val a = TemporalGraphGen.generate(smallSpec)
    val b = TemporalGraphGen.generate(smallSpec.copy(seed = 8L))
    assert(a.edges != b.edges)
  }

  test("edge count matches the spec") {
    val g = TemporalGraphGen.generate(smallSpec)
    assert(g.numEdges == smallSpec.targetEdges)
    assert(g.numEdges == 4 * 2 * 60 + 200)
  }

  test("no self loops; ids and timestamps in range") {
    val g = TemporalGraphGen.generate(smallSpec)
    g.edges.foreach { e =>
      assert(e.u != e.v)
      assert(e.u >= 0 && e.u < smallSpec.nVertices)
      assert(e.v >= 0 && e.v < smallSpec.nVertices)
      assert(e.t >= 1 && e.t <= smallSpec.horizon + smallSpec.maxBurstSpan)
    }
  }

  test("burst edges stay inside their burst window") {
    val g = TemporalGraphGen.generate(smallSpec)
    // Burst edges precede noise edges in generation order.
    val burstEdges = g.edges.take(smallSpec.communities *
      smallSpec.burstsPerCommunity * smallSpec.edgesPerBurst)
    val perBurst = burstEdges.grouped(smallSpec.edgesPerBurst).toVector
    assert(perBurst.size == g.bursts.size)
    perBurst.zip(g.bursts).foreach { case (es, b) =>
      es.foreach { e =>
        assert(e.t >= b.window.ts && e.t <= b.window.te)
        assert(b.members.contains(e.u) && b.members.contains(e.v))
      }
    }
  }

  test("bursts actually contain temporal k-cores") {
    val g = TemporalGraphGen.generate(smallSpec)
    g.bursts.foreach { b =>
      val windowEdges = g.edges.filter(e => e.t >= b.window.ts && e.t <= b.window.te)
      assert(KCore.coreVertices(windowEdges, 2).nonEmpty, s"burst $b")
    }
  }

  test("all seven dataset stand-ins are registered in paper order") {
    assert(Datasets.all.map(_.name) == Vector("youtube-lite", "dblp-lite", "flickr-lite",
      "collegemsg-lite", "email-lite", "mathoverflow-lite", "stackoverflow-lite"))
  }

  test("byName resolves and rejects") {
    assert(Datasets.byName("email-lite").nVertices == 900)
    intercept[RuntimeException](Datasets.byName("nope"))
  }

  test("dataset generation is memoized") {
    val a = Datasets.generate("collegemsg-lite")
    val b = Datasets.generate("collegemsg-lite")
    assert(a eq b)
  }

  test("collegemsg-lite matches its spec scale") {
    val g = Datasets.generate("collegemsg-lite")
    assert(g.numEdges == Datasets.collegeMsg.targetEdges)
    assert(g.numEdges == 20000)
    assert(g.edges.iterator.map(_.t).max <= Datasets.collegeMsg.horizon + Datasets.collegeMsg.maxBurstSpan)
  }

  test("selected queries: 20 queries, ids 1..20, five per dataset") {
    val qs = Datasets.selectedQueries
    assert(qs.size == 20)
    assert(qs.map(_.id) == (1 to 20).toVector)
    assert(qs.groupBy(_.dataset).view.mapValues(_.size).toMap.values.forall(_ == 5))
    assert(qs.filter(_.dataset == "email-lite").forall(_.k == 3))
    assert(qs.filter(_.dataset != "email-lite").forall(_.k == 2))
  }

  test("selected query windows are inside their dataset horizon") {
    Datasets.selectedQueries.foreach { q =>
      val spec = Datasets.byName(q.dataset)
      assert(q.window.ts >= 1)
      assert(q.window.te <= spec.horizon + spec.maxBurstSpan)
    }
  }

  test("all 20 selected queries are valid (return at least one core)") {
    Datasets.selectedQueries.foreach { q =>
      val g = Datasets.generate(q.dataset)
      val res = OTCD.run(new TELEngine(g.edges), q.k, q.window)
      assert(res.count >= 1, s"query ${q.id} on ${q.dataset} ${q.window} k=${q.k} is empty")
    }
  }

  test("queryById") {
    assert(Datasets.queryById(1).id == 1)
    assert(Datasets.queryById(20).id == 20)
  }

  test("youtube-lite contains 10-cores (Table 6 prerequisite)") {
    val g = Datasets.generate("youtube-lite")
    val res = OTCD.run(new TELEngine(g.edges), 10, Interval(1, 60))
    assert(res.count >= 1)
  }
}
