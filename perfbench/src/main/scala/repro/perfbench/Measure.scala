package repro.perfbench

import java.lang.management.ManagementFactory
import repro.baseline.{IPHCQuery, PHCIndex}
import repro.core._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** JVM facts read from outside the program: the JMX beans and the heap. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes the calling thread has allocated so far. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Total (collections, milliseconds) over all collectors so far. */
  def gc(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum)
  }

  def usedAfterGc(): Long = {
    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    rt.totalMemory() - rt.freeMemory()
  }

  /** Heap held by what `build` returns: the after-GC heap delta around it. */
  def retainedMb(build: () => AnyRef): Double = {
    val before = usedAfterGc()
    val held = build()
    val after = usedAfterGc()
    java.lang.ref.Reference.reachabilityFence(held)
    (after - before) / 1e6
  }
}

/** Named sample buffers. */
final class Samples {
  private val buf = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  def add(name: String, v: Double): Unit = buf.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
  def apply(name: String): Vector[Double] = buf.get(name).fold(Vector.empty[Double])(_.toVector)
}

object Samples {
  /** Nearest-rank percentile `p` in (0, 100] of `xs`. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100 * s.size).toInt - 1))
  }
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** Times of the set-up stages of one set-up, by layer name. */
final class Stages {
  val ms: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  def apply[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally ms(name) = ms.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e6
  }
}

/** A checked answer kept from the reference pass. */
final case class Reference(fingerprint: Vector[(Int, Int, Int)], digest: Long)

/** The context of one closed-loop pass: times each call into the program,
  * counts attempts and failures, and checks answers. The reference pass
  * validates every answer in full and keeps its fingerprint; later passes
  * must reproduce it.
  */
final class Pass(
    val samples: Samples,
    val tracer: Option[Tracer],
    val reference: Boolean,
    contentCheck: Boolean,
    refs: mutable.Map[String, Reference],
    errors: Errors) {

  private def engine(e: CoreEngine): CoreEngine = tracer.fold(e)(new TracedEngine(e, _))

  private def attempt[A](body: => A): Option[A] = {
    errors.attempted += 1
    try Some(body)
    catch { case t: Exception => errors.fail(s"call failed: $t"); None }
  }

  private def query(metric: String, e: CoreEngine, k: Int, w: Interval, pruning: Boolean)
      : Option[TCQResult] = attempt {
    val eng = engine(e)
    val a0 = Jvm.allocatedBytes()
    val t0 = System.nanoTime()
    val r = tracer match {
      case Some(tr) => tr.inQuery(run(eng, k, w, pruning))
      case None     => run(eng, k, w, pruning)
    }
    val t1 = System.nanoTime()
    val a1 = Jvm.allocatedBytes()
    samples.add(metric, (t1 - t0) / 1e6)
    if (pruning) samples.add("alloc_mb", (a1 - a0) / 1e6)
    samples.add("query.cells_visited", r.stats.cellsVisited.toDouble)
    samples.add("query.cells_total", r.stats.totalCells.toDouble)
    samples.add("query.cells_pruned", r.stats.prunedTotal.toDouble)
    samples.add("query.induced", r.stats.inducedCores.toDouble)
    samples.add("query.duplicates", r.stats.duplicateCores.toDouble)
    samples.add("query.cores", r.count.toDouble)
    r
  }

  private def run(e: CoreEngine, k: Int, w: Interval, pruning: Boolean): TCQResult =
    if (pruning) OTCD.run(e, k, w) else TCD.run(e, k, w)

  def otcd(e: CoreEngine, k: Int, w: Interval): Option[TCQResult] = query("otcd_ms", e, k, w, pruning = true)
  def tcd(e: CoreEngine, k: Int, w: Interval): Option[TCQResult] = query("tcd_ms", e, k, w, pruning = false)

  def baseline(edges: IndexedSeq[TemporalEdge], index: PHCIndex, k: Int, w: Interval)
      : Option[TCQResult] = attempt {
    val t0 = System.nanoTime()
    val r = IPHCQuery.run(edges, index, k, w)
    samples.add("baseline_ms", (System.nanoTime() - t0) / 1e6)
    r
  }

  /** Appends `batch` (in timestamp order) to `tel` with `TEL.addEdge`. */
  def append(tel: TEL, batch: IndexedSeq[TemporalEdge]): Unit = attempt {
    val s = tracer.map(_.begin(Tracer.AddEdge))
    val t0 = System.nanoTime()
    var i = 0
    while (i < batch.size) { val e = batch(i); tel.addEdge(e.u, e.v, e.t); i += 1 }
    val t1 = System.nanoTime()
    tracer.foreach { tr => tr.end(s.get); tr.work(s.get, batch.size.toLong) }
    samples.add("append_us_per_edge", (t1 - t0) / 1e3 / batch.size)
  }

  /** Checks the answer `r` of OTCD call `label` with coreness bound `k`. On
    * the reference pass `r` must be valid and is kept as the reference
    * answer; afterwards it must equal it (in full when `contentCheck`).
    */
  def verify(label: String, r: Option[TCQResult], k: Int): Unit = r.foreach { res =>
    check(
      if (reference) {
        refs(label) = Reference(Checks.fingerprint(res), Checks.digest(res))
        Checks.validResult(res, k)
      } else refs.get(label) match {
        case None => Seq(s"$label: no reference answer")
        case Some(ref) =>
          Checks.expect(Checks.fingerprint(res) == ref.fingerprint,
            s"$label: answer differs from the reference pass") ++
            Checks.expect(!contentCheck || Checks.digest(res) == ref.digest,
              s"$label: traced answer differs from the untraced one")
      })
  }

  def check(problems: Seq[String]): Unit =
    if (problems.nonEmpty) errors.fail(problems.take(3).mkString("; "))

  def referenceTTIs(label: String): Option[Vector[Interval]] =
    refs.get(label).map(_.fingerprint.map { case (ts, te, _) => Interval(ts, te) })

  def referenceDigest(label: String): Option[Long] = refs.get(label).map(_.digest)
}

/** Attempt and failure counts of a whole run. */
final class Errors {
  var attempted = 0L
  var failed = 0L
  def fail(msg: String): Unit = {
    failed += 1
    if (failed <= 20) System.err.println(s"check failed: $msg")
  }
}
