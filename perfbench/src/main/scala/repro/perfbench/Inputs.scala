package repro.perfbench

import repro.core.Interval
import repro.graphgen.{Datasets, GraphSpec, TemporalGraphGen}

/** Seeded benchmark inputs.
  *
  * Graphs come from `TemporalGraphGen.generate(spec.copy(seed = ...))` on the
  * Table 2 stand-ins. Seed 0 keeps every spec's own seed, so it reproduces the
  * graphs and the 20 Table 3 queries of `Datasets`; any other seed shifts all
  * spec seeds and gives a held-out input set of the same shape.
  */
object Inputs {

  /** Data seed of the `part`-th graph of `spec` under benchmark seed `seed`
    * (seed 0, part 0 = the spec's own); `part` < 1000.
    */
  def specSeed(spec: GraphSpec, seed: Long, part: Int): Long = spec.seed + 1000L * seed + part

  def graph(spec: GraphSpec, seed: Long, part: Int = 0): TemporalGraphGen.Generated =
    TemporalGraphGen.generate(spec.copy(seed = specSeed(spec, seed, part)))

  /** One TCQ instance of the benchmark. */
  final case class Query(id: Int, dataset: String, window: Interval, k: Int)

  /** Table 3's datasets with their query span and `k`, in query-id order. */
  val table3: Vector[(GraphSpec, Int, Int)] = Vector(
    (Datasets.collegeMsg, 120, 2),
    (Datasets.emailEuCore, 100, 3),
    (Datasets.mathOverflow, 100, 2),
    (Datasets.stackOverflow, 100, 2),
  )

  /** Table 3's window rule applied to every planted burst of the four
    * Table 3 graphs, in query-id order: a window of the dataset's span
    * starting a quarter span before the burst. Table 3's own 20 queries are
    * the five consecutive bursts around each graph's median burst start;
    * they keep ids 1-20 (`selected`), the other windows get ids from 21 up.
    */
  def burstQueries(graphs: Map[String, TemporalGraphGen.Generated]): Vector[Query] = {
    val perDataset = table3.map { case (spec, span, k) =>
      val bursts = graphs(spec.name).bursts.sortBy(_.window.ts)
      val windows = bursts.map { b =>
        val ts = math.max(1, math.min(b.window.ts - span / 4, spec.horizon - span))
        Interval(ts, ts + span)
      }
      val mid = bursts.size / 2 - 2
      (spec, k, windows, mid)
    }
    val selected = perDataset.zipWithIndex.flatMap { case ((spec, k, ws, mid), d) =>
      (0 until 5).map(i => Query(d * 5 + i + 1, spec.name, ws(mid + i), k))
    }
    val others = perDataset.flatMap { case (spec, k, ws, mid) =>
      ws.indices.filterNot(i => i >= mid && i < mid + 5).map(i => (spec.name, ws(i), k))
    }.distinct.filterNot { case (d, w, _) => selected.exists(q => q.dataset == d && q.window == w) }
    selected ++ others.zipWithIndex.map { case ((d, w, k), i) => Query(21 + i, d, w, k) }
  }
}
