package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** Differential tests for `TEL.copy` / `copyRange`: a copy, and the source
  * it was taken from, must both behave exactly like a TEL built from scratch
  * over the edges they hold, through later appends and TCD operations, once
  * that reference is sealed like them. Appends come where `addEdge` allows
  * them, on an unsealed TEL: the source before its first `copy()` or
  * deletion, also after a `copyRange` of it, and that `copyRange` result. A
  * source compacted by a `copyRange` over its whole timeline, as a TCQ row
  * source is, must also behave exactly like one that went through the same
  * truncations and decompositions uncompacted. Vertex ids are spread as in
  * `TCQDifferentialSpec`, so the id tables grow on wide ids in masters,
  * copies, `copyRange` results and compacted sources.
  */
class TELCopySpec extends AnyFunSuite {
  import TELCopySpec.Scenario

  private val nV = 8
  // Appends also bring in vertices nV until nAll, enough to take a TEL past
  // its 16 initial vertex and pair slots.
  private val nAll = 24
  private val horizon = 10

  private val window: Gen[(Int, Int)] = for {
    a <- Gen.choose(0, horizon + 4)
    b <- Gen.choose(a, horizon + 4)
  } yield (a, b)

  private def edge(t: Int): Gen[TemporalEdge] = for {
    u <- Gen.choose(0, nV - 1)
    d <- Gen.choose(1, nV - 1)
  } yield TemporalEdge(u.toLong, ((u + d) % nV).toLong, t)

  /** An appended edge: on the built vertices, or with a new one. */
  private def appended(t: Int): Gen[TemporalEdge] = Gen.oneOf(edge(t), for {
    v <- Gen.choose(nV, nAll - 1)
    u <- Gen.choose(0, nAll - 2)
  } yield TemporalEdge(if (u < v) u.toLong else u + 1L, v.toLong, t))

  private val scenario: Gen[Scenario] = for {
    h <- Gen.choose(1, 3)
    n <- Gen.choose(0, 50)
    edges <- Gen.listOfN(n, Gen.choose(1, horizon).flatMap(edge))
    grown <- Gen.oneOf(false, true)
    truncateTo <- Gen.option(window)
    decomposeK <- Gen.option(Gen.choose(1, 3))
    compaction <- Gen.oneOf(Gen.const(None), Gen.option(window).map(Some(_)))
    range <- Gen.option(window)
    m <- Gen.choose(0, 16)
    gaps <- Gen.listOfN(m, Gen.choose(0, 1)) // 0 = same timestamp as the previous append
    appends <- Gen.sequence[Vector[TemporalEdge], TemporalEdge](
      gaps.scanLeft(horizon + 1)(_ + _).tail.map(appended))
    k <- Gen.choose(1, 3)
    w <- window
    // Vertex i becomes base + i * stride; the top spread ends at Long.MaxValue.
    spread <- Gen.oneOf((0L, 1L), (1L << 40, 1L << 33), (Long.MaxValue - 7L * nAll, 7L))
  } yield {
    val (base, stride) = spread
    def ids(es: Seq[TemporalEdge]) =
      es.map(e => TemporalEdge(base + e.u * stride, base + e.v * stride, e.t)).toVector
    Scenario(h, ids(edges), grown, truncateTo, decomposeK, compaction, range, ids(appends), k,
      w, (0 to nAll).map(base + _ * stride))
  }

  /** Compactions, counted across all cases, of a source with fewer than half
    * of its edge slots alive.
    */
  private var sparseCompactions = 0

  /** Every observable the TEL offers, compared with a from-scratch TEL, and
    * `degreeOf` and `strengthOf` at the vertex ids `ids` also with the
    * adjacency of `got`'s alive edges, in which a pair of fewer than `h`
    * edges counts for nothing: `h` is the TEL's own once it is sealed (§6.2),
    * else 1. The from-scratch TEL looks ids up through the same tables.
    */
  private def matches(got: TEL, exp: TEL, what: String, ids: Seq[Long], h: Int): Unit = {
    assert(got.edges == exp.edges, s"$what: edges")
    assert(got.timestamps == exp.timestamps, s"$what: timestamps")
    assert(got.tti == exp.tti, s"$what: tti")
    assert(got.numAliveEdges == exp.numAliveEdges, s"$what: numAliveEdges")
    assert(got.numVertices == exp.numVertices, s"$what: numVertices")
    assert(got.vertices.toSet == exp.vertices.toSet, s"$what: vertices")
    val adj = KCore.adjacency(got.edges)
    def strength(u: Long, v: Long) = adj.get(u).flatMap(_.get(v)).filter(_ >= h).getOrElse(0)
    for (u <- ids) {
      assert(got.degreeOf(u) == exp.degreeOf(u), s"$what: degreeOf($u)")
      assert(got.degreeOf(u) == ids.count(strength(u, _) > 0), s"$what: degreeOf($u) vs adjacency")
      for (v <- ids if v != u) {
        assert(got.strengthOf(u, v) == exp.strengthOf(u, v), s"$what: strengthOf($u, $v)")
        assert(got.strengthOf(u, v) == strength(u, v), s"$what: strengthOf($u, $v) vs adjacency")
      }
    }
  }

  private def run(s: Scenario): Unit = {
    def sameAs(got: TEL, exp: TEL, what: String, isSealed: Boolean = false): Unit =
      matches(got, exp, what, s.ids, if (isSealed) s.h else 1)
    var source = if (!s.grown) TEL.fromEdges(s.edges, s.h) else {
      val t = TEL.empty(s.h)
      s.edges.sortBy(_.t).foreach(e => t.addEdge(e.u, e.v, e.t))
      t
    }
    // Compaction as a TCQ row source gets it: replaced by a whole-timeline copyRange.
    def rebuildSource(): Unit = source = source.copyRange(Int.MinValue, Int.MaxValue)
    def copyOf(t: TEL): TEL = s.range.fold(t.copy()) { case (a, b) => t.copyRange(a, b) }
    def inRange(es: Vector[TemporalEdge]) =
      s.range.fold(es) { case (a, b) => es.filter(e => e.t >= a && e.t <= b) }
    // A truncation over all time deletes nothing but seals its TEL, so a
    // reference sealed by it has the §6.2 purges of a sealed TEL.
    def seal(t: TEL): Unit = t.truncate(Int.MinValue, Int.MaxValue)
    val before = source.edges
    // A copyRange only reads the source, which appends after it; the result
    // appends the same edges itself.
    val ranged = s.range.map { case (a, b) => source.copyRange(a, b) }
    ranged.foreach(r => sameAs(r, TEL.fromEdges(inRange(before), s.h), "copyRange"))
    s.appends.foreach(e => source.addEdge(e.u, e.v, e.t))
    ranged.foreach(r => s.appends.foreach(e => r.addEdge(e.u, e.v, e.t)))
    // Compaction before the seal carries the pairs that the seal will purge (§6.2).
    if (s.compaction.isDefined) rebuildSource()
    val plain = TEL.fromEdges(before ++ s.appends, s.h) // the same operations, never compacted
    sameAs(source, plain, "source after appends")
    // copy() seals its source, so it comes after every append to it; the
    // references are sealed alike.
    val copy = ranged.getOrElse { seal(plain); source.copy() }
    val copyEdges = inRange(before) ++ s.appends
    val expCopy = TEL.fromEdges(copyEdges, s.h)
    if (s.range.isEmpty) seal(expCopy)
    sameAs(copy, expCopy, "copy", isSealed = s.range.isEmpty)

    def both(op: TEL => Unit): Unit = { op(source); op(plain) }
    s.truncateTo.foreach { case (a, b) => both(_.truncate(a, b)) }
    s.decomposeK.foreach(k => both(_.decompose(k)))
    s.compaction.foreach { retruncate =>
      // A truncation after a decompose leaves the vertices that fell below k
      // on the peel stack, under ids that compaction renumbers.
      retruncate.foreach { case (a, b) => both(_.truncate(a, b)) }
      if (source.sparse) sparseCompactions += 1
      rebuildSource()
      sameAs(source, TEL.fromEdges(plain.edges, s.h), "compacted source")
      s.decomposeK.foreach(k => both(_.decompose(k)))
      sameAs(source, plain, "compacted source after decompose")
    }
    // A copy of a source with deleted edges anywhere on its timeline.
    val late = copyOf(source)
    val lateEdges = inRange(source.edges)
    sameAs(late, TEL.fromEdges(lateEdges, s.h), "late copy")

    // A second-generation copy: of a copy(), or of a copyRange that appended.
    val again = copy.copy()
    val (ts, te) = s.window
    for ((got, exp, what) <- Seq((copy, expCopy, "copy"), (source, plain, "source"),
        (again, TEL.fromEdges(copyEdges, s.h), "copy of copy"),
        (late, TEL.fromEdges(lateEdges, s.h), "late copy"))) {
      got.tcd(s.k, ts, te)
      exp.tcd(s.k, ts, te)
      assert(got.snapshot().map(_.canonicalKey) == exp.snapshot().map(_.canonicalKey),
        s"$what: core after tcd")
      sameAs(got, exp, s"$what after tcd", isSealed = true)
    }
  }

  test("copy and copyRange match a TEL built from the alive edges (property)") {
    val prop = Prop.forAll(scenario) { s => run(s); true }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(800), prop)
    assert(result.passed, result.status.toString)
    assert(sparseCompactions > 0, s"generator coverage: sparse=$sparseCompactions")
  }

  test("copy() seals its source") {
    val source = TEL.fromEdges(TestGraphs.multiEdge, h = 2) // (1,3) has one edge
    assert(source.strengthOf(1, 3) == 1 && source.numAliveEdges == 6)
    val copy = source.copy()
    for ((t, what) <- Seq((source, "source"), (copy, "copy"))) {
      assert(t.strengthOf(1, 3) == 0 && t.numAliveEdges == 5, what)
      assert(t.degreeOf(3) == 1 && t.numVertices == 3, what)
      intercept[IllegalArgumentException](t.addEdge(1, 3, 7))
    }
  }

  test("copyRange is sized by the window, not by the source") {
    val es = TestGraphs.random(7, nV = 2000, nE = 20000, horizon = 1000)
    val master = TEL.fromEdges(es)
    val win = master.copyRange(500, 502)
    assert(win.memoryFootprintBytes * 50 < master.memoryFootprintBytes)
    assert(win.edges == es.filter(e => e.t >= 500 && e.t <= 502).sortBy(_.t))
  }
}

object TELCopySpec {
  /** One scenario: a random multigraph, built at its exact size or `grown`
    * by appends to an empty TEL (so its columns have spare slots), the
    * appends that follow on the source (and on a `copyRange` copy taken
    * before them), which copy is taken of it (a `copy()` after the appends),
    * the truncation and decomposition of the source after them, and the TCD
    * operation that ends it; a copy of the same kind is taken again after
    * those deletions. `compaction`, when present, compacts
    * the source twice: after the appends, and after its truncation and
    * decomposition (first truncated again to the inner window if one is
    * given, then decomposed again afterwards). Vertex `i` of `edges` and
    * `appends` has id `ids(i)`; the last of `ids` is held by no edge.
    */
  final case class Scenario(
      h: Int,
      edges: Vector[TemporalEdge],
      grown: Boolean,
      truncateTo: Option[(Int, Int)],
      decomposeK: Option[Int],
      compaction: Option[Option[(Int, Int)]],
      range: Option[(Int, Int)],
      appends: Vector[TemporalEdge],
      k: Int,
      window: (Int, Int),
      ids: IndexedSeq[Long])
}
