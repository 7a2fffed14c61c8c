package repro.core

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.util.Random

/** Shared fixtures for the algorithm tests: deterministic random temporal
  * graphs and a hand-analyzed example graph with known temporal 2-cores.
  */
object TestGraphs {

  /** Deterministic random multigraph: `nE` edges over `nV` vertices and
    * timestamps in `[1, horizon]`.
    */
  def random(seed: Long, nV: Int, nE: Int, horizon: Int): Vector[TemporalEdge] = {
    val rnd = new Random(seed)
    Vector.fill(nE) {
      val u = rnd.nextInt(nV).toLong
      var v = rnd.nextInt(nV).toLong
      while (v == u) v = rnd.nextInt(nV).toLong
      TemporalEdge(u, v, 1 + rnd.nextInt(horizon))
    }
  }

  /** Runs `body` on a fresh daemon thread and returns its result, or throws
    * `TimeoutException` after `seconds`, so a test of code that loops forever
    * fails instead of hanging the suite.
    */
  def within[T](seconds: Int)(body: => T): T = {
    val ec = ExecutionContext.fromExecutor { r =>
      val th = new Thread(r)
      th.setDaemon(true)
      th.start()
    }
    Await.result(Future(body)(ec), seconds.seconds)
  }

  /** Canonical identity set of a collection of cores. */
  def keySet(cores: Iterable[CoreResult]): Set[Vector[(Long, Long, Int)]] =
    cores.map(_.canonicalKey).toSet

  /** Hand-analyzed example (vertices 1–5, timestamps 1–5).
    *
    * Distinct temporal 2-cores over [1,5], worked out by hand:
    * TTIs [1,5] (whole graph), [1,4], [2,5], [1,2] (triangle 1-2-3),
    * [3,4] (triangle 3-4-5) — five distinct cores.
    */
  val example: Vector[TemporalEdge] = Vector(
    TemporalEdge(1, 2, 1),
    TemporalEdge(2, 3, 2), TemporalEdge(1, 3, 2),
    TemporalEdge(3, 4, 3), TemporalEdge(4, 5, 3),
    TemporalEdge(3, 5, 4),
    TemporalEdge(1, 4, 5),
  )

  val exampleWindow: Interval = Interval(1, 5)

  val exampleDistinctTTIs: Set[Interval] =
    Set(Interval(1, 5), Interval(1, 4), Interval(2, 5), Interval(1, 2), Interval(3, 4))

  /** A graph with heavy parallel edges for link-strength tests:
    * triangle 1-2-3 where pair (1,2) has 3 parallel edges, (2,3) has 2,
    * (1,3) has 1, all inside [1,6].
    */
  val multiEdge: Vector[TemporalEdge] = Vector(
    TemporalEdge(1, 2, 1), TemporalEdge(1, 2, 2), TemporalEdge(2, 1, 3),
    TemporalEdge(2, 3, 4), TemporalEdge(3, 2, 5),
    TemporalEdge(1, 3, 6),
  )
}
