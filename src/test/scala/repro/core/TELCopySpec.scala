package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** Differential tests for `TEL.copy` / `copyRange`: a copy, and the source
  * it was taken from, must both behave exactly like a TEL built from scratch
  * over the edges they hold, through later appends and TCD operations. A
  * source compacted by a `copyRange` over its whole timeline, as a TCQ row
  * source is, must also behave exactly like one that went through the same
  * truncations and decompositions uncompacted. Appends come where `addEdge`
  * allows them: before any deletion, after head truncations, or on a
  * `copyRange` result.
  */
class TELCopySpec extends AnyFunSuite {
  import TELCopySpec.Scenario

  private val nV = 8
  private val horizon = 10

  private val window: Gen[(Int, Int)] = for {
    a <- Gen.choose(0, horizon + 4)
    b <- Gen.choose(a, horizon + 4)
  } yield (a, b)

  private def edge(t: Int): Gen[TemporalEdge] = for {
    u <- Gen.choose(0, nV - 1)
    d <- Gen.choose(1, nV - 1)
  } yield TemporalEdge(u.toLong, ((u + d) % nV).toLong, t)

  private val scenario: Gen[Scenario] = for {
    h <- Gen.choose(1, 3)
    n <- Gen.choose(0, 50)
    edges <- Gen.listOfN(n, Gen.choose(1, horizon).flatMap(edge))
    // At h > 1 a truncation also purges weak pairs anywhere on the timeline,
    // after which `addEdge` refuses to append.
    headCut <- if (h == 1) Gen.option(Gen.choose(0, horizon + 1)) else Gen.const(None)
    truncateTo <- Gen.option(window)
    decomposeK <- Gen.option(Gen.choose(1, 3))
    compaction <- Gen.oneOf(Gen.const(None), Gen.option(window).map(Some(_)))
    range <- Gen.option(window)
    m <- Gen.choose(0, 12)
    gaps <- Gen.listOfN(m, Gen.choose(0, 1)) // 0 = same timestamp as the previous append
    appends <- Gen.sequence[Vector[TemporalEdge], TemporalEdge](
      gaps.scanLeft(horizon + 1)(_ + _).tail.map(edge))
    k <- Gen.choose(1, 3)
    w <- window
  } yield Scenario(h, edges.toVector, headCut, truncateTo, decomposeK, compaction, range, appends,
    k, w)

  /** Compactions counted across all cases: of a source with fewer than half
    * of its edge slots alive, and of one with §6.2 purges still pending.
    */
  private var sparseCompactions, pendingCompactions = 0

  /** Every observable the TEL offers, compared with a from-scratch TEL. */
  private def sameAs(got: TEL, exp: TEL, what: String): Unit = {
    assert(got.edges == exp.edges, s"$what: edges")
    assert(got.timestamps == exp.timestamps, s"$what: timestamps")
    assert(got.tti == exp.tti, s"$what: tti")
    assert(got.numAliveEdges == exp.numAliveEdges, s"$what: numAliveEdges")
    assert(got.numVertices == exp.numVertices, s"$what: numVertices")
    assert(got.vertices.toSet == exp.vertices.toSet, s"$what: vertices")
    for (u <- 0 until nV + 1) {
      assert(got.degreeOf(u) == exp.degreeOf(u), s"$what: degreeOf($u)")
      for (v <- 0 until nV + 1 if v != u)
        assert(got.strengthOf(u, v) == exp.strengthOf(u, v), s"$what: strengthOf($u, $v)")
    }
  }

  private def run(s: Scenario): Unit = {
    var source = TEL.fromEdges(s.edges, s.h)
    // Compaction as a TCQ row source gets it: replaced by a whole-timeline copyRange.
    def rebuildSource(): Unit = source = source.copyRange(Int.MinValue, Int.MaxValue)
    def copyOf(t: TEL): TEL = s.range.fold(t.copy()) { case (a, b) => t.copyRange(a, b) }
    def inRange(es: Vector[TemporalEdge]) =
      s.range.fold(es) { case (a, b) => es.filter(e => e.t >= a && e.t <= b) }
    s.headCut.foreach(a => source.truncate(a, Int.MaxValue))
    val before = source.edges
    val copy = copyOf(source)
    val copied = inRange(before)
    sameAs(copy, TEL.fromEdges(copied, s.h), "copy")

    // Interleaved appends: source and copy must not share any state.
    s.appends.foreach { e =>
      source.addEdge(e.u, e.v, e.t)
      copy.addEdge(e.u, e.v, e.t)
    }
    // Appends leave pairs below h pending (§6.2) until the next truncate or
    // decompose; compaction must carry them over.
    if (s.compaction.isDefined) {
      if (s.h > 1 && (before ++ s.appends).groupBy(e => TemporalEdge.pairKey(e.u, e.v))
          .exists(_._2.size < s.h)) pendingCompactions += 1
      rebuildSource()
    }
    val expCopy = TEL.fromEdges(copied ++ s.appends, s.h)
    val plain = TEL.fromEdges(before ++ s.appends, s.h) // the same operations, never compacted
    sameAs(source, plain, "source after appends")
    sameAs(copy, expCopy, "copy after appends")

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

    // A second-generation copy carries pending purges and appends too.
    val again = copy.copy()
    val (ts, te) = s.window
    for ((got, exp, what) <- Seq((copy, expCopy, "copy"), (source, plain, "source"),
        (again, TEL.fromEdges(copied ++ s.appends, s.h), "copy of copy"),
        (late, TEL.fromEdges(lateEdges, s.h), "late copy"))) {
      got.tcd(s.k, ts, te)
      exp.tcd(s.k, ts, te)
      assert(got.snapshot().map(_.canonicalKey) == exp.snapshot().map(_.canonicalKey),
        s"$what: core after tcd")
      sameAs(got, exp, s"$what after tcd")
    }
  }

  test("copy and copyRange match a TEL built from the alive edges (property)") {
    val prop = Prop.forAll(scenario) { s => run(s); true }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(800), prop)
    assert(result.passed, result.status.toString)
    assert(sparseCompactions > 0 && pendingCompactions > 0,
      s"generator coverage: sparse=$sparseCompactions pending=$pendingCompactions")
  }

  test("copy keeps the link-strength purges pending in its source") {
    val source = TEL.fromEdges(TestGraphs.multiEdge, h = 2) // (1,3) pending, strength 1
    val copy = source.copy()
    copy.decompose(1)
    assert(copy.strengthOf(1, 3) == 0 && copy.numAliveEdges == 5)
    assert(source.strengthOf(1, 3) == 1 && source.numAliveEdges == 6)
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
  /** One scenario: a random multigraph, the head truncation of the source
    * before the copy, which copy is taken, the appends that follow on both,
    * the truncation and decomposition of the source after them, and the TCD
    * operation that ends it; a copy of the same kind is taken again after
    * those deletions. `compaction`, when present, compacts the source twice:
    * after the appends, and after its truncation and decomposition (first
    * truncated again to the inner window if one is given, then decomposed
    * again afterwards).
    */
  final case class Scenario(
      h: Int,
      edges: Vector[TemporalEdge],
      headCut: Option[Int],
      truncateTo: Option[(Int, Int)],
      decomposeK: Option[Int],
      compaction: Option[Option[(Int, Int)]],
      range: Option[(Int, Int)],
      appends: Vector[TemporalEdge],
      k: Int,
      window: (Int, Int))
}
