package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Unit tests for the Temporal Edge List data structure (§5.1). */
class TELSpec extends AnyFunSuite {

  private def tel(edges: Seq[TemporalEdge], h: Int = 1) = TEL.fromEdges(edges, h)

  test("empty TEL") {
    val t = TEL.empty()
    assert(t.isEmpty && t.numAliveEdges == 0 && t.numVertices == 0)
    assert(t.tti.isEmpty && t.snapshot().isEmpty && t.edges.isEmpty)
  }

  test("build counts edges and vertices") {
    val t = tel(TestGraphs.example)
    assert(t.numAliveEdges == 7)
    assert(t.numVertices == 5)
  }

  test("tti returns min/max timestamps (Theorem 2 machinery, O(1))") {
    assert(tel(TestGraphs.example).tti.contains(Interval(1, 5)))
    assert(tel(Vector(TemporalEdge(1, 2, 42))).tti.contains(Interval(42, 42)))
  }

  test("timestamps walk the timeline in ascending order") {
    val t = tel(Vector(TemporalEdge(1, 2, 5), TemporalEdge(2, 3, 1), TemporalEdge(1, 3, 9)))
    assert(t.timestamps == Vector(1, 5, 9))
  }

  test("edges returned in timeline order") {
    val es = Vector(TemporalEdge(1, 2, 3), TemporalEdge(2, 3, 1), TemporalEdge(1, 3, 2))
    assert(tel(es).edges.map(_.t) == Vector(1, 2, 3))
  }

  test("degree counts distinct neighbours, not parallel edges") {
    val t = tel(Vector(TemporalEdge(1, 2, 1), TemporalEdge(2, 1, 2), TemporalEdge(1, 3, 3)))
    assert(t.degreeOf(1) == 2)
    assert(t.degreeOf(2) == 1)
    assert(t.degreeOf(3) == 1)
    assert(t.degreeOf(99) == 0)
  }

  test("strengthOf reports parallel-edge counts symmetrically") {
    val t = tel(TestGraphs.multiEdge)
    assert(t.strengthOf(1, 2) == 3)
    assert(t.strengthOf(2, 1) == 3)
    assert(t.strengthOf(2, 3) == 2)
    assert(t.strengthOf(1, 3) == 1)
    assert(t.strengthOf(1, 9) == 0)
  }

  test("build rejects self-loops") {
    intercept[IllegalArgumentException](tel(Vector(TemporalEdge(4, 4, 1))))
  }

  test("link strength h < 1 is rejected with the offending value") {
    for (h <- Seq(0, -1)) {
      val built = intercept[IllegalArgumentException](tel(TestGraphs.example, h))
      assert(built.getMessage.contains(s"got $h"))
      val empty = intercept[IllegalArgumentException](TEL.empty(h))
      assert(empty.getMessage.contains(s"got $h"))
    }
  }

  test("addEdge rejects out-of-order timestamps") {
    val t = TEL.empty()
    t.addEdge(1, 2, 5)
    intercept[IllegalArgumentException](t.addEdge(2, 3, 4))
    t.addEdge(2, 3, 5) // equal timestamp is fine
    t.addEdge(3, 4, 6)
    assert(t.numAliveEdges == 3)
  }

  test("addEdge rejects an earlier timestamp; a no-op truncate or decompose seals") {
    // An unsealed TEL has deleted nothing, so its last appended edge is its
    // last alive one.
    val es = Vector(TemporalEdge(1, 2, 3), TemporalEdge(2, 3, 7))
    val t = tel(es)
    val late = intercept[IllegalArgumentException](t.addEdge(3, 4, 5))
    assert(late.getMessage.contains("5 < 7"), late.getMessage)
    t.addEdge(3, 4, 7)
    t.addEdge(2, 1, 9)
    assert(t.edges == es ++ Vector(TemporalEdge(3, 4, 7), TemporalEdge(2, 1, 9)))
    assert(t.timestamps == Vector(3, 7, 9) && t.strengthOf(1, 2) == 2 && t.degreeOf(3) == 2)
    val ops = Seq[(String, TEL => Unit)](
      "truncate" -> (_.truncate(3, 7)), "decompose" -> (_.decompose(1)))
    for ((what, op) <- ops) {
      val s = tel(es)
      op(s)
      assert(s.edges == es, what)
      val err = intercept[IllegalArgumentException](s.addEdge(3, 4, 9))
      assert(err.getMessage.contains("unsealed"), s"$what: ${err.getMessage}")
      assert(s.edges == es && s.degreeOf(4) == 0, what)
    }
  }

  test("addEdge refuses a copy and every sealed TEL, and leaves it as it was") {
    // Only the master grows (§6.1), and queries work on copies of it (§5.2).
    // An in-order append of a new vertex is refused on each of these.
    def refuses(t: TEL, what: String): Unit = {
      val (edges, vertices, tti) = (t.edges, t.vertices.toSet, t.tti)
      val err = intercept[IllegalArgumentException](t.addEdge(4, 5, 9))
      assert(err.getMessage.contains("addEdge needs an unsealed TEL"), s"$what: $err")
      assert(t.edges == edges && t.vertices.toSet == vertices && t.tti == tti, what)
      assert(t.numAliveEdges == edges.size && t.numVertices == vertices.size, what)
      assert(t.strengthOf(4, 5) == 0 && t.degreeOf(5) == 0, what)
    }
    val path = Vector(TemporalEdge(1, 2, 1), TemporalEdge(2, 3, 2), TemporalEdge(3, 4, 3))
    val master = tel(path)
    val copy = master.copy()
    refuses(copy, "a copy")
    refuses(master, "the source of a copy")
    assert(master.edges == path && copy.edges == path)
    val shot = tel(path)
    assert(shot.snapshot().get.edges == path)
    refuses(shot, "after a snapshot")
    val headCut = tel(path)
    headCut.truncate(2, Int.MaxValue)
    refuses(headCut, "after a head truncation")
    val tailCut = tel(path)
    tailCut.truncate(1, 2)
    refuses(tailCut, "after a tail truncation")
    // (3,4) sits between the triangle's edges; the peel at 2 deletes it.
    val pendant = Vector(TemporalEdge(1, 2, 1), TemporalEdge(3, 4, 2), TemporalEdge(2, 3, 3),
      TemporalEdge(1, 3, 4))
    val peeled = tel(pendant)
    peeled.decompose(2)
    assert(peeled.numAliveEdges == 3)
    refuses(peeled, "after a peel")
    // (1,3) has one edge, between the doubled (1,2) and (2,3): h = 2 purges it.
    val weak = Vector(TemporalEdge(1, 2, 1), TemporalEdge(2, 1, 1), TemporalEdge(1, 3, 2),
      TemporalEdge(2, 3, 3), TemporalEdge(3, 2, 3))
    val purged = tel(weak, h = 2)
    purged.decompose(1)
    assert(purged.strengthOf(1, 3) == 0 && purged.numAliveEdges == 4)
    refuses(purged, "after an h = 2 purge")
  }

  test("truncate, decompose, copy() and snapshot() seal a TEL; copyRange does not") {
    // At h = 1 the first truncate and the first decompose delete nothing.
    val seals = Seq[(String, TEL => Unit)](
      "truncate over all time" -> (_.truncate(Int.MinValue, Int.MaxValue)),
      "truncate(3, 6)" -> (_.truncate(3, 6)),
      "decompose(1)" -> (_.decompose(1)),
      "decompose(3)" -> (_.decompose(3)),
      "copy()" -> (_.copy()),
      "snapshot()" -> (_.snapshot()))
    val ids = 0L to 10L
    for (seed <- 1 to 20; h <- 1 to 2; (what, seal) <- seals) {
      val rnd = new scala.util.Random(seed)
      val es = TestGraphs.random(seed, nV = 10, nE = 40, horizon = 8).sortBy(_.t)
      val t = TEL.empty(h)
      // Appends with copyRanges of random windows in between.
      for (e <- es) {
        t.addEdge(e.u, e.v, e.t)
        if (rnd.nextInt(4) == 0) {
          val a = rnd.nextInt(9)
          t.copyRange(a, a + rnd.nextInt(9))
        }
      }
      assert(t.edges == es, s"seed=$seed h=$h")
      seal(t)
      def state = (t.edges, t.vertices.toSet, ids.map(t.degreeOf),
        for (a <- ids; b <- ids if a < b) yield t.strengthOf(a, b))
      val before = state
      val err = intercept[IllegalArgumentException](t.addEdge(0, 10, 9))
      assert(err.getMessage.contains("addEdge needs an unsealed TEL"),
        s"seed=$seed h=$h $what: $err")
      assert(state == before, s"seed=$seed h=$h $what")
      if (h == 2) for (c <- Seq(t, t.copy())) {
        assert(c.edges.groupBy(_.pair).values.forall(_.size >= 2), s"seed=$seed $what")
        for (a <- ids; b <- ids if a < b)
          assert(c.strengthOf(a, b) == 0 || c.strengthOf(a, b) >= 2, s"seed=$seed $what: ($a,$b)")
      }
    }
  }

  test("truncate drops head timestamps") {
    val t = tel(TestGraphs.example)
    t.truncate(3, Int.MaxValue)
    assert(t.edges.forall(_.t >= 3))
    assert(t.tti.contains(Interval(3, 5)))
  }

  test("truncate drops tail timestamps") {
    val t = tel(TestGraphs.example)
    t.truncate(Int.MinValue + 1, 2)
    assert(t.edges.forall(_.t <= 2))
    assert(t.tti.contains(Interval(1, 2)))
  }

  test("truncate to window matches filtering") {
    for (seed <- 1 to 6) {
      val es = TestGraphs.random(seed, nV = 15, nE = 80, horizon = 20)
      val t = tel(es)
      t.truncate(5, 15)
      val expected = es.filter(e => e.t >= 5 && e.t <= 15)
      assert(t.edges.sortBy(e => (e.t, e.u, e.v)) == expected.sortBy(e => (e.t, e.u, e.v)))
    }
  }

  test("truncate to empty window empties the TEL") {
    val t = tel(TestGraphs.example)
    t.truncate(100, 200)
    assert(t.isEmpty && t.numVertices == 0 && t.tti.isEmpty)
  }

  test("truncate updates degrees") {
    val t = tel(TestGraphs.example)
    t.truncate(1, 2) // edges (1,2)@1 (2,3)@2 (1,3)@2 remain
    assert(t.degreeOf(1) == 2 && t.degreeOf(2) == 2 && t.degreeOf(3) == 2)
    assert(t.degreeOf(4) == 0 && t.degreeOf(5) == 0)
  }

  test("decompose peels low-degree vertices (example graph, [2,3])") {
    val t = tel(TestGraphs.example)
    t.truncate(2, 3)
    t.decompose(2)
    // Hand-checked: [2,3] unravels completely for k=2.
    assert(t.isEmpty)
  }

  test("decompose matches reference peeling on random graphs") {
    for (seed <- 1 to 10; k <- 1 to 4) {
      val es = TestGraphs.random(seed * 13, nV = 20, nE = 90, horizon = 15)
      val t = tel(es)
      t.decompose(k)
      val expected = KCore.core(es, k)
      (t.snapshot(), expected) match {
        case (None, None) => ()
        case (Some(got), Some(exp)) =>
          assert(got.canonicalKey == exp.canonicalKey, s"seed=$seed k=$k")
          assert(got.vertices == exp.vertices, s"seed=$seed k=$k")
          assert(got.tti == exp.tti, s"seed=$seed k=$k")
        case (got, exp) => fail(s"seed=$seed k=$k: got=$got expected=$exp")
      }
    }
  }

  test("tcd operation = truncate + decompose, matches reference") {
    for (seed <- 1 to 8) {
      val es = TestGraphs.random(seed * 7, nV = 16, nE = 70, horizon = 12)
      val t = tel(es)
      t.tcd(2, 4, 9)
      val exp = KCore.core(es.filter(e => e.t >= 4 && e.t <= 9), 2)
      assert(t.snapshot().map(_.canonicalKey) == exp.map(_.canonicalKey), s"seed=$seed")
    }
  }

  test("decompose leaves all degrees >= k") {
    for (seed <- 1 to 6) {
      val es = TestGraphs.random(seed * 3 + 1, nV = 20, nE = 100, horizon = 10)
      val t = tel(es)
      t.decompose(3)
      t.vertices.foreach(v => assert(t.degreeOf(v) >= 3))
    }
  }

  /** Decomposes `t` at `k` and checks it against the reference core of
    * `alive`, the edges `t` held before; returns the edges left.
    */
  private def peelsLikeReference(t: TEL, alive: Seq[TemporalEdge], k: Int, h: Int = 1)
      : Vector[TemporalEdge] = {
    t.decompose(k)
    assert(t.snapshot().map(_.canonicalKey) == KCore.core(alive, k, h).map(_.canonicalKey),
      s"k=$k alive=$alive")
    t.vertices.foreach(v => assert(t.degreeOf(v) >= k, s"k=$k v=$v"))
    t.edges
  }

  private val triangle = Vector(TemporalEdge(1, 2, 1), TemporalEdge(2, 3, 2), TemporalEdge(1, 3, 3))
  private val k4 = Vector(TemporalEdge(1, 2, 1), TemporalEdge(1, 3, 2), TemporalEdge(1, 4, 3),
    TemporalEdge(2, 3, 4), TemporalEdge(2, 4, 5), TemporalEdge(3, 4, 6))
  private val k4PlusTriangle =
    k4 ++ Vector(TemporalEdge(4, 5, 7), TemporalEdge(5, 6, 8), TemporalEdge(4, 6, 9))

  test("decompose after addEdge peels new vertices below k") {
    val t = tel(triangle)
    // 4 and 5 come in at degree 1 and never cross k, so only the first
    // decompose(2)'s scan of the degrees finds them.
    val appended = Vector(TemporalEdge(3, 4, 4), TemporalEdge(5, 1, 4))
    appended.foreach(e => t.addEdge(e.u, e.v, e.t))
    assert(t.degreeOf(4) == 1 && t.degreeOf(5) == 1)
    assert(peelsLikeReference(t, triangle ++ appended, 2) == triangle)
    assert(t.degreeOf(4) == 0 && t.degreeOf(5) == 0)
  }

  test("decompose(2) then decompose(3) on one instance") {
    val t = tel(k4PlusTriangle)
    val c2 = peelsLikeReference(t, k4PlusTriangle, 2)
    assert(c2.size == 9)
    assert(peelsLikeReference(t, c2, 3).size == 6)
  }

  test("decompose(3) then decompose(2) on one instance, then truncate and peel at 2") {
    val t = tel(k4PlusTriangle)
    val c3 = peelsLikeReference(t, k4PlusTriangle, 3)
    val c2 = peelsLikeReference(t, c3, 2)
    assert(c2 == c3 && c2.size == 6)
    t.truncate(4, 9) // triangle 2-3-4 remains
    assert(peelsLikeReference(t, c2.filter(_.t >= 4), 2).size == 3)
    t.truncate(5, 9) // path 2-4-3 unravels
    assert(peelsLikeReference(t, c2.filter(_.t >= 5), 2).isEmpty)
  }

  test("link strength h=2: a purge cascade pushes a vertex below k") {
    // K4 on 1..4 plus vertex 5 tied to 1, 2, 3, every pair doubled; one of
    // (3,5)'s two edges sits alone at t=1.
    val doubled = for {
      (u, v) <- Vector((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 5), (2, 5))
      t <- Vector(2, 3)
    } yield TemporalEdge(u, v, t)
    val es = doubled ++ Vector(TemporalEdge(3, 5, 1), TemporalEdge(3, 5, 3))
    val t = tel(es, h = 2)
    assert(peelsLikeReference(t, es, 3, h = 2).size == es.size)
    // Dropping t=1 purges (3,5): 5 falls from degree 3 to 2 and must go.
    t.truncate(2, 3)
    val core = peelsLikeReference(t, es.filter(_.t >= 2), 3, h = 2)
    assert(core.size == 12 && t.degreeOf(5) == 0)
  }

  test("NL bookkeeping holds for pairs emptied by truncate or decompose") {
    // Every pair holds at least two edges, so h = 2 keeps them all and a peel
    // at h = 1 must delete parallel edges. The master builds NL in a
    // decompose that deletes nothing and shares it with `early`; a second
    // master, `grown`, also takes appends that bring new pairs, and its copy
    // `late` shares the NL that its seal builds over all of them.
    def two(u: Long, v: Long, at: Int) = Vector.fill(2)(TemporalEdge(u, v, at))
    val k4 = Seq((2L, 3L), (2L, 4L), (2L, 5L), (3L, 4L), (3L, 5L), (4L, 5L))
    for (h <- 1 to 2) {
      val es = Vector(TemporalEdge(2, 1, 0), TemporalEdge(1, 2, 0)) ++ two(1, 3, 1) ++
        k4.flatMap { case (u, v) => two(u, v, 1) }
      val master = tel(es, h)
      def counts(t: TEL, step: String): Unit = {
        val alive = t.edges
        for (a <- 1L to 6L) {
          val nbrs = alive.collect { case e if e.u == a => e.v; case e if e.v == a => e.u }
          assert(t.degreeOf(a) == nbrs.distinct.size, s"h=$h $step: degreeOf($a)")
          for (b <- 1L to 6L if b != a) assert(
            t.strengthOf(a, b) == alive.count(_.pair == ((a min b, a max b))),
            s"h=$h $step: strengthOf($a, $b)")
        }
        assert(t.numVertices == alive.flatMap(e => Seq(e.u, e.v)).distinct.size, s"h=$h $step")
      }
      // A corrupted NL or degree counter can make a peel loop, so each step gets 10 s.
      def step(t: TEL, name: String)(mutate: => Unit): Unit = {
        TestGraphs.within(10)(mutate)
        counts(t, name)
      }
      def peel(t: TEL, k: Int, size: Int): Unit =
        assert(peelsLikeReference(t, t.edges, k, h).size == size, s"h=$h k=$k")
      step(master, "a peel that deletes nothing")(peel(master, 1, 16))
      val early = master.copy()
      val grown = tel(es, h)
      // New pairs (1,4) and, with the new vertex 6, (2,6) and (3,6); and two
      // more edges of (1,2), at the tail.
      step(grown, "appends") {
        (two(4, 1, 2) ++ two(6, 2, 2) ++ two(3, 6, 2) ++ two(1, 2, 3))
          .foreach(e => grown.addEdge(e.u, e.v, e.t))
      }
      val late = grown.copy()
      counts(late, "late copy")
      step(early, "early: truncate empties (1,2)")(early.truncate(1, 1))
      assert(early.strengthOf(1, 2) == 0)
      step(early, "early: peeling 1 empties (1,3)")(peel(early, 3, 12))
      assert(early.degreeOf(1) == 0)
      // A truncation that cuts part of (1,2)'s tail leaves it alive with its
      // cut slots past the tail; the truncation that deletes the pair later
      // must leave them dead.
      step(late, "late: truncate cuts (1,2)'s tail")(late.truncate(0, 2))
      assert(late.strengthOf(1, 2) == 2)
      step(late, "late: peel 6 away")(peel(late, 3, 18))
      step(late, "late: truncate empties (1,2)")(late.truncate(1, 2))
      step(late, "late: peeling 1 empties (1,3) and (1,4)")(peel(late, 3, 12))
      step(late, "late: peel the K4 away")(peel(late, 4, 0))
      step(grown, "grown: peel 6 away")(peel(grown, 3, 20))
    }
  }

  test("copy is deep: mutating the copy leaves the original intact") {
    val t = tel(TestGraphs.example)
    val c = t.copy()
    c.tcd(2, 3, 4)
    assert(t.numAliveEdges == 7)
    assert(t.tti.contains(Interval(1, 5)))
    assert(c.edges.forall(e => e.t >= 3 && e.t <= 4))
  }

  test("copyRange extracts a window without mutating the master") {
    for (seed <- 1 to 5) {
      val es = TestGraphs.random(seed * 271, nV = 15, nE = 80, horizon = 20)
      val master = tel(es)
      val win = master.copyRange(5, 15)
      assert(master.numAliveEdges == es.size)
      val expected = es.filter(e => e.t >= 5 && e.t <= 15)
      assert(win.edges.sortBy(e => (e.t, e.u, e.v)) == expected.sortBy(e => (e.t, e.u, e.v)))
    }
  }

  test("copyRange of an empty window yields an empty TEL") {
    val master = tel(TestGraphs.example)
    assert(master.copyRange(50, 60).isEmpty)
  }

  test("copy preserves edges, degrees and strengths") {
    val es = TestGraphs.random(99, nV = 12, nE = 50, horizon = 8)
    val t = tel(es)
    t.truncate(2, 7)
    val c = t.copy()
    assert(c.edges.sortBy(e => (e.t, e.u, e.v)) == t.edges.sortBy(e => (e.t, e.u, e.v)))
    t.vertices.foreach(v => assert(c.degreeOf(v) == t.degreeOf(v)))
  }

  test("dynamic addEdge then query equals build-from-scratch (§6.1)") {
    val es = TestGraphs.random(5, nV = 15, nE = 60, horizon = 10).sortBy(_.t)
    val (first, rest) = es.splitAt(30)
    val dyn = TEL.fromEdges(first)
    rest.foreach(e => dyn.addEdge(e.u, e.v, e.t))
    val static = TEL.fromEdges(es)
    assert(dyn.edges.sortBy(e => (e.t, e.u, e.v)) == static.edges.sortBy(e => (e.t, e.u, e.v)))
    dyn.decompose(2)
    static.decompose(2)
    assert(dyn.snapshot().map(_.canonicalKey) == static.snapshot().map(_.canonicalKey))
  }

  test("dynamic append extends the timeline at the tail") {
    val t = tel(Vector(TemporalEdge(1, 2, 3)))
    t.addEdge(2, 3, 7)
    assert(t.timestamps == Vector(3, 7))
    assert(t.tti.contains(Interval(3, 7)))
  }

  test("link strength h=2: weak pairs purged at first decompose") {
    val t = tel(TestGraphs.multiEdge, h = 2)
    t.decompose(1)
    // (1,3) has strength 1 -> purged; (1,2) and (2,3) survive.
    assert(t.strengthOf(1, 3) == 0)
    assert(t.strengthOf(1, 2) == 3)
    assert(t.strengthOf(2, 3) == 2)
    assert(t.numAliveEdges == 5)
  }

  test("link strength h=2: truncation-induced weakening cascades") {
    val t = tel(TestGraphs.multiEdge, h = 2)
    // Dropping t>=5 leaves (1,2)x3 @1,2,3 and (2,3)x1 @4: (2,3) must purge.
    t.truncate(1, 4)
    t.decompose(1)
    assert(t.strengthOf(2, 3) == 0)
    assert(t.strengthOf(1, 2) == 3)
    assert(t.numVertices == 2)
  }

  test("link strength h=2: truncate alone purges the pairs that appends left below h") {
    // (1,3) holds one edge inside the window, so no deletion at an end
    // reaches it: only the purge of pairs that appends left weak removes it.
    // Copies of both kinds carry that state from their source.
    val source = tel(TestGraphs.multiEdge, h = 2)
    val all = Seq((source.copy(), "copy"), (source.copyRange(1, 6), "copyRange"),
      (source, "source"))
    for ((t, what) <- all) {
      t.truncate(1, 6)
      assert(t.strengthOf(1, 3) == 0 && t.numAliveEdges == 5, what)
      assert(t.degreeOf(3) == 1 && t.numVertices == 3, what)
    }
  }

  test("link strength matches reference KCore with h on random graphs") {
    for (seed <- 1 to 8; h <- 2 to 3) {
      val es = TestGraphs.random(seed * 17, nV = 10, nE = 120, horizon = 6)
      val t = tel(es, h)
      t.decompose(2)
      val exp = KCore.core(es, 2, h)
      assert(t.snapshot().map(_.canonicalKey) == exp.map(_.canonicalKey), s"seed=$seed h=$h")
    }
  }

  test("memory footprint grows with edges and is reported") {
    val small = tel(TestGraphs.random(1, 10, 50, 10))
    val large = tel(TestGraphs.random(1, 100, 5000, 100))
    assert(small.memoryFootprintBytes > 0)
    assert(large.memoryFootprintBytes > small.memoryFootprintBytes)
    // Fresh copies of two TELs with the same vertices and pairs, one with
    // every edge doubled, have equal footprints: a copy shares every
    // per-edge array with its source.
    val once = TestGraphs.random(2, 30, 200, 20)
    val single = tel(once).copy()
    val double = tel(once ++ once).copy()
    assert(double.memoryFootprintBytes == single.memoryFootprintBytes)
    // A fresh copy holds two arrays of its own, the degrees of its vertices
    // and the strengths of its pairs; NL and every other column are shared.
    val vertices = once.flatMap(e => Seq(e.u, e.v)).distinct.size
    val pairs = once.map(_.pair).distinct.size
    assert(single.memoryFootprintBytes == (16 + 4 * vertices) + (16 + 4 * pairs))
  }

  test("negative vertex ids are rejected") {
    val err = intercept[IllegalArgumentException](TEL.empty().addEdge(-3, 1, 1))
    assert(err.getMessage.contains("(-3,1)"), err.getMessage)
    intercept[IllegalArgumentException](TEL.empty().addEdge(1, -1, 1))
    val wide = TEL.empty()
    wide.addEdge(1L << 40, Long.MaxValue, 1)
    assert(wide.edges == Vector(TemporalEdge(1L << 40, Long.MaxValue, 1)))
  }

  test("snapshot handles keep their core through later truncate, decompose and addEdge") {
    // A master grows by appends, into new vertices and pairs. Between them,
    // copyRanges over its whole timeline, which leave it unsealed, are
    // snapshotted, copied, truncated and decomposed. Every handle is read
    // only at the end.
    for (seed <- 1 to 12; h <- 1 to 2) {
      val es = TestGraphs.random(seed, nV = 12, nE = 50, horizon = 8).sortBy(_.t)
      val extra = TestGraphs.random(seed + 100, nV = 20, nE = 30, horizon = 2)
        .map(e => e.copy(t = e.t + 8)).sortBy(_.t)
      val (more, last) = extra.splitAt(15)
      val master = TEL.empty(h)
      es.foreach(e => master.addEdge(e.u, e.v, e.t))
      def stage(): TEL = master.copyRange(Int.MinValue, Int.MaxValue)
      // Each handle, with the edges and vertices of its TEL read at the same moment.
      val taken = Vector.newBuilder[(CoreResult, Vector[TemporalEdge], Set[Long], String)]
      def take(t: TEL, what: String): Unit =
        t.snapshot().foreach(c => taken += ((c, t.edges, t.vertices.toSet, what)))
      def peel(t: TEL, k: Int): Unit = {
        val alive = t.edges
        t.decompose(k)
        assert(t.snapshot().map(_.canonicalKey) == KCore.core(alive, k, h).map(_.canonicalKey),
          s"seed=$seed h=$h k=$k")
      }
      val built = stage()
      take(built, "master as built")
      val early = built.copy()
      more.foreach(e => master.addEdge(e.u, e.v, e.t))
      val grown = stage()
      assert(master.edges == es ++ more && grown.edges == es ++ more, s"seed=$seed h=$h")
      take(grown, "master after appends")
      take(early, "early copy as taken")
      early.truncate(2, 9)
      take(early, "early copy after truncate")
      peel(early, 2)
      take(early, "early copy after decompose")
      val late = grown.copy()
      last.foreach(e => master.addEdge(e.u, e.v, e.t))
      take(stage(), "master after more appends")
      late.truncate(3, 10)
      take(late, "late copy after truncate")
      peel(late, 3)
      take(late, "late copy after decompose")
      early.tcd(3, 4, 9); late.tcd(1, 9, 10)
      peel(built, 2); peel(grown, 3)
      assert(master.edges == es ++ extra, s"seed=$seed h=$h")
      for ((c, edges, vertices, what) <- taken.result()) {
        assert(c.numEdges == edges.size && c.numVertices == vertices.size, s"seed=$seed h=$h $what")
        assert(c.edges == edges, s"seed=$seed h=$h $what: edges")
        assert(c.vertices == vertices, s"seed=$seed h=$h $what: vertices")
        assert(c.tti == Interval(edges.map(_.t).min, edges.map(_.t).max), s"seed=$seed h=$h $what")
      }
    }
  }

  /** A TEL whose pair (3,4) is peeled while its slots lie inside the
    * timeline: a triangle on 1..3 with the pendant (3,4) between its edges,
    * every pair doubled so that h = 2 keeps them.
    */
  private def peeledInside(h: Int): TEL = {
    def two(u: Long, v: Long, at: Int) = Vector.fill(2)(TemporalEdge(u, v, at))
    val t = tel(two(1, 2, 1) ++ two(3, 4, 2) ++ two(2, 3, 3) ++ two(1, 3, 4), h)
    t.decompose(2)
    assert(t.numAliveEdges == 6, s"h=$h")
    t
  }

  test("strengthOf reads 0 for a peeled or truncated pair, in its TEL and in copies of it") {
    for (h <- 1 to 2) {
      val t = peeledInside(h)
      assert(t.strengthOf(3, 4) == 0 && t.strengthOf(4, 3) == 0 && t.degreeOf(4) == 0, s"h=$h")
      val c = t.copy()
      c.truncate(3, Int.MaxValue) // (1,2) dies in the copy only
      assert(c.strengthOf(1, 2) == 0 && c.strengthOf(3, 4) == 0, s"h=$h")
      assert(c.strengthOf(2, 3) == 2 && c.degreeOf(1) == 1, s"h=$h")
      assert(t.strengthOf(1, 2) == 2 && t.degreeOf(1) == 2, s"h=$h")
    }
  }

  test("a snapshot handle reads a pair peeled before it as dead, and pairs deleted after it as alive") {
    // The handle's slot range covers (3,4)'s dead slots, stamped before the
    // handle, and the triangle's, stamped after it by a truncation and a peel.
    for (h <- 1 to 2) {
      val t = peeledInside(h)
      val c = t.snapshot().get
      val edges = t.edges
      val vertices = t.vertices.toSet
      t.truncate(3, Int.MaxValue) // (1,2) dies
      t.decompose(2) // so do (1,3) and (2,3)
      assert(t.isEmpty, s"h=$h")
      assert(c.numEdges == edges.size && c.numVertices == vertices.size, s"h=$h")
      assert(c.edges == edges, s"h=$h: edges")
      assert(c.vertices == vertices, s"h=$h: vertices")
    }
  }

  test("snapshot vertices equal edge endpoints") {
    val t = tel(TestGraphs.example)
    t.tcd(2, 1, 5)
    val s = t.snapshot().get
    assert(s.vertices == s.edges.flatMap(e => Seq(e.u, e.v)).toSet)
  }
}
