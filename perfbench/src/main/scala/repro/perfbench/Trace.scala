package repro.perfbench

import java.io.{BufferedWriter, File, FileWriter}
import repro.core.{CoreEngine, CoreResult, CoreState, TELState}

/** In-memory span log for the traced run.
  *
  * A span is one call into a layer: its name, start and end (`System.nanoTime`),
  * the span that was open when it began (its parent), the query it belongs to,
  * and one work count (edges copied, deleted or materialised). Spans are kept
  * in growable primitive columns and written out by [[writeCsv]] at exit.
  * Time covered by direct children is summed as they end, so a span's self
  * time is its duration minus that sum.
  */
final class Tracer {
  import Tracer._

  private var n = 0
  private var nameOf = new Array[Int](1024)
  private var parentOf = new Array[Int](1024)
  private var queryOf = new Array[Int](1024)
  private var startOf = new Array[Long](1024)
  private var endOf = new Array[Long](1024)
  private var workOf = new Array[Long](1024)
  private var childNsOf = new Array[Long](1024)
  private var open = -1
  private var query = -1
  private var queries = 0

  private def grow(): Unit = {
    val cap = nameOf.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap)
    parentOf = java.util.Arrays.copyOf(parentOf, cap)
    queryOf = java.util.Arrays.copyOf(queryOf, cap)
    startOf = java.util.Arrays.copyOf(startOf, cap)
    endOf = java.util.Arrays.copyOf(endOf, cap)
    workOf = java.util.Arrays.copyOf(workOf, cap)
    childNsOf = java.util.Arrays.copyOf(childNsOf, cap)
  }

  /** Opens a span under the innermost open one; returns its id. */
  def begin(name: Int): Int = {
    if (n == nameOf.length) grow()
    val id = n
    n += 1
    nameOf(id) = name; parentOf(id) = open; queryOf(id) = query
    workOf(id) = 0; childNsOf(id) = 0
    open = id
    startOf(id) = System.nanoTime()
    id
  }

  def end(id: Int): Unit = {
    val t = System.nanoTime()
    endOf(id) = t
    open = parentOf(id)
    if (open >= 0) childNsOf(open) += t - startOf(id)
  }

  def work(id: Int, count: Long): Unit = workOf(id) = count

  /** Runs `body` as one query: a `tcq.query` span with a fresh query id. */
  def inQuery[A](body: => A): A = {
    query = queries
    queries += 1
    val s = begin(Query)
    try body
    finally { end(s); query = -1 }
  }

  /** Per-name totals over all spans. */
  def totals(): Map[String, Totals] = {
    val calls = new Array[Long](Names.size)
    val ns = new Array[Long](Names.size)
    val selfNs = new Array[Long](Names.size)
    val work = new Array[Long](Names.size)
    val zeroWork = new Array[Long](Names.size)
    var i = 0
    while (i < n) {
      val k = nameOf(i)
      val d = endOf(i) - startOf(i)
      calls(k) += 1; ns(k) += d; selfNs(k) += d - childNsOf(i); work(k) += workOf(i)
      if (workOf(i) == 0) zeroWork(k) += 1
      i += 1
    }
    Names.indices.map(k => Names(k) -> Totals(calls(k), ns(k), selfNs(k), work(k), zeroWork(k))).toMap
  }

  /** Writes every span as one CSV row: id,name,parent,query,start_ns,end_ns,work. */
  def writeCsv(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new FileWriter(file))
    try {
      w.write("id,name,parent,query,start_ns,end_ns,work\n")
      var i = 0
      while (i < n) {
        w.write(s"$i,${Names(nameOf(i))},${parentOf(i)},${queryOf(i)},")
        w.write(s"${startOf(i)},${endOf(i)},${workOf(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

object Tracer {
  val Names: Vector[String] = Vector(
    "tcq.query", "tel.copy_range", "tel.copy", "tel.truncate", "tel.decompose",
    "tel.snapshot", "tel.add_edge")
  val Query = 0
  val CopyRange = 1
  val Copy = 2
  val Truncate = 3
  val Decompose = 4
  val Snapshot = 5
  val AddEdge = 6

  /** Sum over the spans of one name; `zeroWork` counts spans whose work was 0. */
  final case class Totals(calls: Long, ns: Long, selfNs: Long, work: Long, zeroWork: Long) {
    def ms: Double = ns / 1e6
    def selfMs: Double = selfNs / 1e6
  }
}

/** Edges alive in a TEL-backed state, read through `TELState.tel`. */
private object Alive {
  def apply(s: CoreState): Long = s match {
    case t: TELState => t.tel.numAliveEdges.toLong
    case _           => 0L
  }
}

/** [[CoreEngine]] wrapper recording a `tel.copy_range` span per `initial`. */
final class TracedEngine(inner: CoreEngine, tr: Tracer) extends CoreEngine {
  override def initial(ts: Int, te: Int): CoreState = {
    val s = tr.begin(Tracer.CopyRange)
    val state = inner.initial(ts, te)
    tr.end(s)
    tr.work(s, Alive(state))
    new TracedState(state, tr)
  }
}

/** [[CoreState]] wrapper recording one span per TCD step, with the edges the
  * step deleted, copied or materialised as its work count.
  */
final class TracedState(inner: CoreState, tr: Tracer) extends CoreState {
  override def truncate(ts: Int, te: Int): Unit = {
    val before = Alive(inner)
    val s = tr.begin(Tracer.Truncate)
    inner.truncate(ts, te)
    tr.end(s)
    tr.work(s, before - Alive(inner))
  }

  override def decompose(k: Int): Unit = {
    val before = Alive(inner)
    val s = tr.begin(Tracer.Decompose)
    inner.decompose(k)
    tr.end(s)
    tr.work(s, before - Alive(inner))
  }

  override def snapshot(): Option[CoreResult] = {
    val s = tr.begin(Tracer.Snapshot)
    val core = inner.snapshot()
    tr.end(s)
    tr.work(s, core.fold(0L)(_.numEdges.toLong))
    core
  }

  override def copyState(): CoreState = {
    val s = tr.begin(Tracer.Copy)
    val copy = inner.copyState()
    tr.end(s)
    tr.work(s, Alive(copy))
    new TracedState(copy, tr)
  }
}
