package repro.perfbench

import repro.baseline.PHCIndex
import repro.core._
import repro.graphgen.{Datasets, TemporalGraphGen}

/** A workload after set-up. */
trait Session {
  /** Builds the workload's master TEL(s) again, for the heap measurement. */
  def buildMasters(): AnyRef

  /** One closed-loop pass over the workload's OTCD queries (and appends). */
  def pass(p: Pass): Unit

  /** Runs the reference algorithms once, after the reference pass, and
    * checks the pass's answers against them.
    */
  def crossCheck(p: Pass): Unit
}

trait Workload {
  def name: String
  def setup(seed: Long, stages: Stages): Session
}

object Workloads {
  val all: Vector[Workload] = Vector(ShortWindows, ManyCores, StreamAppend)
  def byName(name: String): Option[Workload] = all.find(_.name == name)

  def sameTTIs(p: Pass, label: String, other: Option[TCQResult], what: String): Seq[String] =
    (for (r <- other; ref <- p.referenceTTIs(label)) yield
      Checks.expect(Checks.ttis(r) == ref, s"$label: TTIs differ from $what")).getOrElse(Nil)
}

import Workloads._

/** Table 3's query rule on every planted burst of the four Table 3 graphs
  * (about 140 windows of span 100-120, k=2/3), by OTCD. TCD runs Table 3's
  * 20 selected queries and iPHC-Query queries 1, 6, 11 and 16 (PHC-Index
  * built in set-up) as references.
  */
object ShortWindows extends Workload {
  val name = "short-windows"
  val baselineIds = Set(1, 6, 11, 16)

  def setup(seed: Long, stages: Stages): Session = {
    val graphs = stages("graphgen.generate_ms") {
      Inputs.table3.map { case (spec, _, _) => spec.name -> Inputs.graph(spec, seed) }.toMap
    }
    val queries = Inputs.burstQueries(graphs)
    val engines = stages("tel.build_ms")(graphs.map { case (n, g) => n -> new TELEngine(g.edges) })
    val indexes = stages("phc.build_ms") {
      queries.filter(q => baselineIds(q.id))
        .map(q => q.id -> PHCIndex.build(graphs(q.dataset).edges, q.k, q.window)).toMap
    }
    new Session {
      def buildMasters(): AnyRef = graphs.values.map(g => new TELEngine(g.edges)).toVector

      def pass(p: Pass): Unit = queries.foreach { q =>
        p.verify(s"q${q.id}", p.otcd(engines(q.dataset), q.k, q.window), q.k)
      }

      def crossCheck(p: Pass): Unit = queries.filter(_.id <= 20).foreach { q =>
        val t = p.tcd(engines(q.dataset), q.k, q.window)
        p.check(Checks.validAll(t, q.k) ++ sameTTIs(p, s"q${q.id}", t, "TCD"))
        indexes.get(q.id).foreach { ix =>
          val b = p.baseline(graphs(q.dataset).edges, ix, q.k, q.window)
          p.check(Checks.validAll(b, q.k) ++ sameTTIs(p, s"q${q.id}", b, "iPHC-Query"))
        }
      }
    }
  }
}

/** Table 6's scan shape on four youtube-lite graphs: k=10, OTCD over eight
  * consecutive tiles covering [1, 226] per graph, cut at burst-start octiles
  * so each tile holds an eighth of the planted bursts. TCD on the first
  * graph's tiles is the reference.
  */
object ManyCores extends Workload {
  val name = "many-cores"
  val graphs = 4
  val k = 10
  val tiles = 8

  def setup(seed: Long, stages: Stages): Session = {
    val spec = Datasets.youtube
    val gs = stages("graphgen.generate_ms")((0 until graphs).map(j => Inputs.graph(spec, seed, j)))
    val windows = gs.map { g =>
      val starts = g.bursts.map(_.window.ts).sorted
      val cuts = 1 +: (1 until tiles).map(j => starts(j * starts.size / tiles)) :+ (spec.horizon + 1)
      cuts.sliding(2).map(c => Interval(c(0), c(1) - 1)).toVector
    }
    val engines = stages("tel.build_ms")(gs.map(g => new TELEngine(g.edges)))
    new Session {
      def buildMasters(): AnyRef = gs.map(g => new TELEngine(g.edges))

      def pass(p: Pass): Unit = for (j <- 0 until graphs; w <- windows(j))
        p.verify(s"graph $j $w", p.otcd(engines(j), k, w), k)

      def crossCheck(p: Pass): Unit = windows.head.foreach { w =>
        val t = p.tcd(engines.head, k, w)
        p.check(Checks.validAll(t, k) ++ sameTTIs(p, s"graph 0 $w", t, "TCD"))
      }
    }
  }
}

/** Eight mathoverflow-lite streams: per stream a master TEL over the first
  * half of the edges by time, the rest appended in timestamp order with
  * `TEL.addEdge` in batches of 1,000, each batch followed by OTCD (k=2) on
  * the trailing 100-unit window. References, on the first stream: TCD on the
  * same windows, and OTCD on a TEL built from scratch over the same prefix.
  */
object StreamAppend extends Workload {
  val name = "stream-append"
  val streams = 8
  val k = 2
  val batchSize = 1000
  val span = 100

  /** One stream: its edges by time, the prefix with its master TEL, and the
    * batches.
    */
  final class Stream(val sorted: Vector[TemporalEdge]) {
    val prefix: Vector[TemporalEdge] = sorted.take(sorted.size / 2)
    val batches: Vector[Vector[TemporalEdge]] = sorted.drop(prefix.size).grouped(batchSize).toVector
    private var fresh: Option[TELEngine] = Some(new TELEngine(prefix))

    /** Replays the stream on a master over the prefix (the first replay uses
      * the master set-up built), calling `query` after every batch with the
      * engine, batch index, trailing window and number of edges appended.
      */
    def replay(p: Pass)(query: (TELEngine, Int, Interval, Int) => Unit): Unit = {
      val engine = fresh.getOrElse(new TELEngine(prefix))
      fresh = None
      var appended = prefix.size
      batches.zipWithIndex.foreach { case (batch, i) =>
        p.append(engine.master, batch)
        appended += batch.size
        val te = engine.master.maxTimestamp.get
        query(engine, i, Interval(math.max(1, te - span), te), appended)
      }
    }
  }

  def setup(seed: Long, stages: Stages): Session = {
    val sorted = stages("graphgen.generate_ms") {
      (0 until streams).map(j => Inputs.graph(Datasets.mathOverflow, seed, j).edges.sortBy(_.t))
    }
    val all = stages("tel.build_ms")(sorted.map(new Stream(_)))
    new Session {
      def buildMasters(): AnyRef = all.map(s => new TELEngine(s.prefix))

      def pass(p: Pass): Unit = all.zipWithIndex.foreach { case (s, j) =>
        s.replay(p)((engine, i, w, _) => p.verify(s"stream $j batch $i", p.otcd(engine, k, w), k))
      }

      def crossCheck(p: Pass): Unit = all.head.replay(p) { (engine, i, w, appended) =>
        val label = s"stream 0 batch $i"
        val t = p.tcd(engine, k, w)
        val scratch = OTCD.run(new TELEngine(all.head.sorted.take(appended)), k, w)
        p.check(Checks.validAll(t, k) ++ sameTTIs(p, label, t, "TCD") ++
          p.referenceDigest(label).toSeq.flatMap(d => Checks.expect(d == Checks.digest(scratch),
            s"$label: answer differs from OTCD on a TEL built from scratch")))
      }
    }
  }
}
