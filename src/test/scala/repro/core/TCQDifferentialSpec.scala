package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.{IPHCQuery, PHCIndex}

/** Randomised differential test of the query API: on random temporal
  * multigraphs and random `(k, h, maxSpan, window)`, OTCD and TCD over a
  * [[TELEngine]] return exactly the cores of the brute-force [[NaiveTCQ]],
  * and so does iPHC-Query where it applies (`h = 1`, no `maxSpan`). Appends
  * to the engine's master between queries (§6.1) must be visible to the
  * next query, and must not change the cores the previous query returned,
  * which are read only after the appends. Every core's O(1) sizes equal
  * those of its materialised edges and vertices. Vertex ids are spread over
  * the whole non-negative `Long` range, so no module may pack them into
  * fewer bits.
  */
class TCQDifferentialSpec extends AnyFunSuite {
  import TCQDifferentialSpec.Scenario

  private val nV = 7
  private val horizon = 8

  private def edge(t: Int): Gen[TemporalEdge] = for {
    u <- Gen.choose(0, nV - 1)
    d <- Gen.choose(1, nV - 1)
  } yield TemporalEdge(u.toLong, ((u + d) % nV).toLong, t)

  /** Windows may lie partly or wholly outside `[1, horizon]`; one in four
    * is a single timestamp.
    */
  private val window: Gen[Interval] = Gen.frequency(
    3 -> (for {
      a <- Gen.choose(0, horizon + 2)
      b <- Gen.choose(a, horizon + 3)
    } yield Interval(a, b)),
    1 -> Gen.choose(0, horizon + 1).map(t => Interval(t, t)))

  private val scenario: Gen[Scenario] = for {
    n <- Gen.choose(0, 60)
    edges <- Gen.listOfN(n, Gen.choose(1, horizon).flatMap(edge))
    m <- Gen.choose(0, 8)
    appends <- Gen.listOfN(m, Gen.choose(horizon + 1, horizon + 3)).map(_.sorted)
      .flatMap(ts => Gen.sequence[Vector[TemporalEdge], TemporalEdge](ts.map(edge)))
    k <- Gen.choose(1, 3)
    h <- Gen.frequency(2 -> 1, 1 -> 2, 1 -> 3)
    maxSpan <- Gen.frequency(2 -> None, 1 -> Gen.choose(0, horizon).map(Some(_)))
    w <- window
    spread <- Gen.oneOf((0L, 1L), (1L << 40, 1L << 33), (Long.MaxValue - 100, 7L))
  } yield {
    // Vertex i becomes base + i * stride.
    val (base, stride) = spread
    def ids(es: Seq[TemporalEdge]) =
      es.iterator.map(e => TemporalEdge(base + e.u * stride, base + e.v * stride, e.t)).toVector
    Scenario(ids(edges), ids(appends), k, h, maxSpan, w)
  }

  /** Shapes the generator must keep producing, counted across all cases. */
  private var emptyResults, nonEmptyResults, singleTimestamp, baselineChecked, wideBaseline = 0

  private def query(engine: TELEngine, s: Scenario): (TCQResult, TCQResult) =
    (OTCD.run(engine, s.k, s.window, s.maxSpan), TCD.run(engine, s.k, s.window, s.maxSpan))

  /** Checks one query's answers; reading a core's edges materialises it. */
  private def check(
      answers: (TCQResult, TCQResult),
      edges: Vector[TemporalEdge],
      s: Scenario,
      what: String): Unit = {
    val (otcd, tcd) = answers
    val expected = TestGraphs.keySet(NaiveTCQ.run(edges, s.k, s.window, s.h, s.maxSpan))
    for (c <- otcd.cores ++ tcd.cores) {
      assert(c.numEdges == c.edges.size, s"$what: |E| of ${c.tti} for $s")
      assert(c.numVertices == c.vertices.size, s"$what: |V| of ${c.tti} for $s")
    }
    assert(TestGraphs.keySet(otcd.cores) == expected, s"$what: OTCD != naive for $s")
    assert(TestGraphs.keySet(tcd.cores) == expected, s"$what: TCD != naive for $s")
    assert(otcd.stats.duplicateCores <= tcd.stats.duplicateCores,
      s"$what: OTCD duplicates ${otcd.stats.duplicateCores} > TCD ${tcd.stats.duplicateCores}")
    if (s.h == 1 && s.maxSpan.isEmpty) {
      val index = PHCIndex.build(edges, s.k, s.window)
      val base = IPHCQuery.run(edges, index, s.k, s.window)
      assert(TestGraphs.keySet(base.cores) == expected, s"$what: iPHC-Query != naive for $s")
      baselineChecked += 1
      if (expected.nonEmpty && edges.exists(_.u > Int.MaxValue)) wideBaseline += 1
    }
    if (expected.isEmpty) emptyResults += 1 else nonEmptyResults += 1
  }

  private def run(s: Scenario): Unit = {
    val engine = new TELEngine(s.edges, s.h)
    val first = query(engine, s)
    // The first answers are materialised only after the appends.
    s.appends.foreach(e => engine.master.addEdge(e.u, e.v, e.t))
    check(first, s.edges, s, "static")
    if (s.window.length == 1) singleTimestamp += 1
    if (s.appends.nonEmpty) check(query(engine, s), s.edges ++ s.appends, s, "after appends")
  }

  test("OTCD == TCD == naive (== iPHC-Query at h = 1) on random queries (property)") {
    val prop = Prop.forAll(scenario) { s => run(s); true }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result.status.toString)
    assert(emptyResults > 0 && nonEmptyResults > 0 && singleTimestamp > 0 && baselineChecked > 0 &&
      wideBaseline > 0,
      s"generator coverage: empty=$emptyResults nonEmpty=$nonEmptyResults " +
        s"singleTimestamp=$singleTimestamp baseline=$baselineChecked wideBaseline=$wideBaseline")
  }

  /** An edge as given, `(u, v, t)` with `u != v`, in random orientation. */
  private def asGiven(t: Int): Gen[(Long, Long, Int)] = for {
    u <- Gen.choose(0, nV - 1)
    d <- Gen.choose(1, nV - 1)
  } yield (u.toLong, ((u + d) % nV).toLong, t)

  test("every engine returns each edge as (min, max, t), whatever its given orientation (property)") {
    val gen = for {
      n <- Gen.choose(1, 40)
      edges <- Gen.listOfN(n, Gen.choose(1, horizon).flatMap(asGiven)).map(_.sortBy(_._3))
      m <- Gen.choose(1, 6)
      appends <- Gen.listOfN(m, Gen.choose(horizon + 1, horizon + 3)).map(_.sorted)
        .flatMap(ts => Gen.sequence[Vector[(Long, Long, Int)], (Long, Long, Int)](ts.map(asGiven)))
      k <- Gen.choose(1, 3)
      w <- window
    } yield (edges.toVector, appends, k, w)
    var reversed, nonEmpty = 0
    // An engine's edges, as sorted triples, once each has u <= v.
    def triples(es: Seq[TemporalEdge], what: String): Vector[(Long, Long, Int)] = {
      assert(es.forall(e => e.u <= e.v), s"$what: an edge with u > v in $es")
      es.map(e => (e.u, e.v, e.t)).toVector.sorted
    }
    val prop = Prop.forAll(gen) { case (edges, appends, k, w) =>
      val master = TEL.empty()
      val engine = new TELEngine(master)
      def check(input: Vector[(Long, Long, Int)]): Unit = {
        val all = input.map { case (u, v, t) => (u min v, u max v, t) }.sorted
        assert(triples(master.edges, "edges") == all)
        // copy() and snapshot() seal their TEL, so they take a copyRange of
        // the master, which still appends.
        val whole = master.copyRange(Int.MinValue, Int.MaxValue)
        assert(triples(whole.copy().edges, "copy") == all)
        assert(triples(whole.snapshot().get.edges, "snapshot") == all)
        assert(triples(master.copyRange(w.ts, w.te).edges, "copyRange") ==
          all.filter(e => w.ts <= e._3 && e._3 <= w.te))
        val es = input.map { case (u, v, t) => TemporalEdge(u, v, t) }
        val answers = Seq(
          "OTCD" -> OTCD.run(engine, k, w).cores, "TCD" -> TCD.run(engine, k, w).cores,
          "naive" -> NaiveTCQ.run(es, k, w),
          "iPHC-Query" -> IPHCQuery.run(es, PHCIndex.build(es, k, w), k, w).cores)
        val cores = answers.map { case (what, cs) => cs.map(c => triples(c.edges, what)).toSet }
        assert(cores.forall(_ == cores.head), s"engines disagree on $input, k=$k, $w")
        for (c <- cores.head) assert(c.diff(all).isEmpty, s"core $c is not part of $all")
        if (cores.head.nonEmpty) nonEmpty += 1
      }
      def add(es: Vector[(Long, Long, Int)]): Unit =
        es.foreach { case (u, v, t) => master.addEdge(u, v, t) }
      reversed += (edges ++ appends).count { case (u, v, _) => u > v }
      add(edges)
      check(edges)
      add(appends)
      check(edges ++ appends)
      true
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(result.passed, result.status.toString)
    assert(reversed > 0 && nonEmpty > 0, s"generator coverage: reversed=$reversed nonEmpty=$nonEmpty")
  }
}

object TCQDifferentialSpec {
  /** One query: the graph, edges appended to the master after the first
    * run, and the query parameters.
    */
  final case class Scenario(
      edges: Vector[TemporalEdge],
      appends: Vector[TemporalEdge],
      k: Int,
      h: Int,
      maxSpan: Option[Int],
      window: Interval)
}
