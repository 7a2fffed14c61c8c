package repro.core

import scala.collection.mutable

/** Textbook k-core routines on simple graphs (timestamps dropped).
  *
  * This is the reference substrate: the PHC-Index builder peels with it, and
  * the naïve TCQ oracle and all correctness tests compare the optimized
  * TEL-based algorithms against it. Degrees count *distinct neighbours*
  * (the paper's definition for temporal k-cores), with an optional link
  * strength threshold `h`: a neighbour only exists if connected by at least
  * `h` parallel edges (§6.2).
  */
object KCore {

  /** Builds `vertex -> (neighbour -> parallel-edge count)` adjacency. */
  def adjacency(edges: Iterable[TemporalEdge]): mutable.LongMap[mutable.LongMap[Int]] = {
    val adj = mutable.LongMap.empty[mutable.LongMap[Int]]
    def bump(a: Long, b: Long): Unit = {
      val m = adj.getOrElseUpdate(a, mutable.LongMap.empty[Int])
      m.update(b, m.getOrElse(b, 0) + 1)
    }
    edges.foreach { e =>
      if (e.u != e.v) { bump(e.u, e.v); bump(e.v, e.u) } // self-loops never add degree
    }
    adj
  }

  /** Vertex set of the k-core of the simple graph underlying `edges`,
    * honouring link strength `h` (pairs with fewer than `h` parallel edges
    * are dropped before peeling, matching the modified TCD of §6.2).
    */
  def coreVertices(edges: Iterable[TemporalEdge], k: Int, h: Int = 1): Set[Long] =
    peel(adjacency(edges), k, h)

  /** Vertices of `adj` left after peeling every vertex with fewer than `k`
    * neighbours of multiplicity >= `h`.
    */
  private def peel(adj: mutable.LongMap[mutable.LongMap[Int]], k: Int, h: Int): Set[Long] = {
    // Degree = number of neighbours with multiplicity >= h.
    val deg = mutable.LongMap.empty[Int]
    adj.foreach { case (v, nbrs) => deg(v) = nbrs.count(_._2 >= h) }
    val queue = mutable.Queue.empty[Long]
    val dead = mutable.LongMap.empty[Boolean]
    deg.foreach { case (v, d) => if (d < k) { queue.enqueue(v); dead(v) = true } }
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      adj(v).foreach { case (w, mult) =>
        if (!dead.getOrElse(w, false) && mult >= h) {
          val d = deg(w) - 1
          deg(w) = d
          if (d < k) { queue.enqueue(w); dead(w) = true }
        }
      }
    }
    deg.iterator.collect { case (v, _) if !dead.getOrElse(v, false) => v }.toSet
  }

  /** The temporal k-core of `edges` as a [[CoreResult]], or None if empty.
    *
    * The core is the subgraph induced on the peeled vertices: all temporal
    * edges whose endpoints both survive peeling and whose pair strength, the
    * pair's multiplicity in the adjacency, is >= h.
    */
  def core(edges: Iterable[TemporalEdge], k: Int, h: Int = 1): Option[CoreResult] = {
    val adj = adjacency(edges)
    val verts = peel(adj, k, h)
    val kept = edges.iterator.filter { e =>
      e.u != e.v && verts(e.u) && verts(e.v) && adj(e.u)(e.v) >= h
    }.toVector
    if (kept.isEmpty) None else Some(CoreResult(kept))
  }
}
