package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests of the paper's §6 extensions: link-strength constraint, time-span
  * constraint, and dynamic-graph maintenance, all end-to-end through OTCD.
  */
class ExtensionsSpec extends AnyFunSuite {

  test("link strength: OTCD with h equals brute force with h (example)") {
    val es = TestGraphs.multiEdge
    val w = Interval(1, 6)
    for (h <- 1 to 3) {
      val otcd = OTCD.run(new TELEngine(es, h), 1, w)
      val naive = NaiveTCQ.run(es, 1, w, h)
      assert(TestGraphs.keySet(otcd.cores) == TestGraphs.keySet(naive), s"h=$h")
    }
  }

  test("link strength: OTCD with h equals brute force with h (random)") {
    for (seed <- 1 to 8; h <- 2 to 3) {
      val es = TestGraphs.random(seed * 149, nV = 8, nE = 120, horizon = 8)
      val w = Interval(1, 8)
      val otcd = OTCD.run(new TELEngine(es, h), 2, w)
      val naive = NaiveTCQ.run(es, 2, w, h)
      assert(TestGraphs.keySet(otcd.cores) == TestGraphs.keySet(naive), s"seed=$seed h=$h")
    }
  }

  test("link strength: higher h never yields more cores") {
    val es = TestGraphs.random(151, nV = 8, nE = 150, horizon = 8)
    val w = Interval(1, 8)
    val counts = (1 to 3).map(h => OTCD.run(new TELEngine(es, h), 2, w).count)
    counts.sliding(2).foreach { case Seq(a, b) => assert(b <= a) }
  }

  test("link strength: every pair in every result core has strength >= h") {
    for (seed <- 1 to 5) {
      val es = TestGraphs.random(seed * 157, nV = 8, nE = 120, horizon = 8)
      val res = OTCD.run(new TELEngine(es, h = 2), 2, Interval(1, 8))
      res.cores.foreach { c =>
        c.edges.groupBy(_.pair).foreach { case (_, parallel) =>
          assert(parallel.size >= 2)
        }
      }
    }
  }

  test("time span constraint filters long-TTI cores (example)") {
    // Example graph distinct TTIs: [1,5],[1,4],[2,5],[1,2],[3,4].
    val engine = new TELEngine(TestGraphs.example)
    val all = OTCD.run(engine, 2, TestGraphs.exampleWindow)
    val short = OTCD.run(engine, 2, TestGraphs.exampleWindow, maxSpan = Some(1))
    assert(all.count == 5)
    assert(short.cores.map(_.tti).toSet == Set(Interval(1, 2), Interval(3, 4)))
  }

  test("time span constraint equals post-filtering the unconstrained result") {
    for (seed <- 1 to 8; span <- Seq(0, 2, 5)) {
      val es = TestGraphs.random(seed * 163, nV = 14, nE = 90, horizon = 10)
      val w = Interval(1, 10)
      val engine = new TELEngine(es)
      val constrained = OTCD.run(engine, 2, w, maxSpan = Some(span))
      val filtered = OTCD.run(engine, 2, w).cores.filter(_.tti.span <= span)
      assert(TestGraphs.keySet(constrained.cores) == TestGraphs.keySet(filtered),
        s"seed=$seed span=$span")
    }
  }

  test("time span constraint combined with naive oracle") {
    for (seed <- 1 to 6) {
      val es = TestGraphs.random(seed * 167, nV = 14, nE = 90, horizon = 10)
      val otcd = OTCD.run(new TELEngine(es), 2, Interval(1, 10), maxSpan = Some(3))
      val naive = NaiveTCQ.run(es, 2, Interval(1, 10), maxSpan = Some(3))
      assert(TestGraphs.keySet(otcd.cores) == TestGraphs.keySet(naive), s"seed=$seed")
    }
  }

  test("combined strength + span constraints agree with brute force") {
    for (seed <- 1 to 6) {
      val es = TestGraphs.random(seed * 173, nV = 8, nE = 120, horizon = 8)
      val otcd = OTCD.run(new TELEngine(es, h = 2), 2, Interval(1, 8), maxSpan = Some(4))
      val naive = NaiveTCQ.run(es, 2, Interval(1, 8), h = 2, maxSpan = Some(4))
      assert(TestGraphs.keySet(otcd.cores) == TestGraphs.keySet(naive), s"seed=$seed")
    }
  }

  test("dynamic graph: querying after appends equals static rebuild (§6.1)") {
    for (seed <- 1 to 6) {
      val es = TestGraphs.random(seed * 179, nV = 14, nE = 100, horizon = 12).sortBy(_.t)
      val (old, incoming) = es.splitAt(60)
      // Maintain one TEL dynamically...
      val dyn = TEL.fromEdges(old)
      incoming.foreach(e => dyn.addEdge(e.u, e.v, e.t))
      // ...and query it through an engine (the master stays live for more appends).
      val res = OTCD.run(new TELEngine(dyn), 2, Interval(1, 12))
      val static = OTCD.run(new TELEngine(es), 2, Interval(1, 12))
      assert(TestGraphs.keySet(res.cores) == TestGraphs.keySet(static.cores), s"seed=$seed")
      assert(dyn.numAliveEdges == es.size, s"seed=$seed") // master untouched
    }
  }

  test("dynamic graph: new cores appear as edges arrive") {
    val dyn = TEL.empty()
    dyn.addEdge(1, 2, 1)
    dyn.addEdge(2, 3, 2)
    val engine = new TELEngine(dyn)
    def query(): Int = OTCD.run(engine, 2, Interval(1, 10)).count
    assert(query() == 0)
    dyn.addEdge(1, 3, 3) // completes the triangle
    assert(query() == 1)
    dyn.addEdge(3, 4, 4); dyn.addEdge(4, 5, 4); dyn.addEdge(3, 5, 5)
    assert(query() == 3) // triangle123, triangle345, union
  }
}
