package repro.perfbench

import java.io.File
import scala.collection.mutable

/** The benchmark's entry point: one process, one thread, closed loop.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file.csv>]
  * }}}
  *
  * Sets the workload up 3 to 7 times (median = `setup_s`), measures the heap
  * its master TELs hold, runs one untimed reference pass that validates every
  * answer and the workload's reference algorithms once (their latencies are
  * printed, not gated), then runs passes for `--seconds`. With `--trace 0`
  * every pass is untraced and the end-to-end metrics are reported; with
  * `--trace 1` passes alternate untraced / traced, the per-layer metrics come
  * from the traced ones and `trace.overhead_pct` from the gap between the
  * two. The last line of standard output is the result as one JSON object.
  */
object Main {
  /** Set-up runs: at least `MinSetups`, more while they took under `SetupBudgetS`. */
  val MinSetups = 3
  val MaxSetups = 7
  val SetupBudgetS = 5.0

  final case class Metric(name: String, value: Double, unit: String, samples: Int)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.get("workload").flatMap(Workloads.byName).getOrElse {
      System.err.println(s"usage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
        "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "0").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"

    // ---- set-up, several times; the last session is the one measured
    val stageRuns = mutable.ArrayBuffer.empty[Stages]
    val setupSeconds = mutable.ArrayBuffer.empty[Double]
    var session: Session = null
    def moreSetups = setupSeconds.size < MinSetups ||
      (setupSeconds.size < MaxSetups && setupSeconds.sum < SetupBudgetS)
    while (moreSetups) {
      session = null
      Jvm.usedAfterGc()
      val stages = new Stages
      val t0 = System.nanoTime()
      session = workload.setup(seed, stages)
      setupSeconds += (System.nanoTime() - t0) / 1e9
      stageRuns += stages
    }
    val heapMb = Samples.median((1 to MinSetups).map(_ => Jvm.retainedMb(() => session.buildMasters())))

    // ---- reference pass (untimed), then the closed loop
    val errors = new Errors
    val refs = mutable.Map.empty[String, Reference]
    session.pass(new Pass(new Samples, None, reference = true, contentCheck = false, refs, errors))
    val crossSamples = new Samples
    session.crossCheck(new Pass(crossSamples, None, reference = false, contentCheck = false, refs, errors))

    val plain = new Samples
    val traced = new Samples
    val tracer = new Tracer
    var gcCount, gcMs = 0L
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < deadline || i < (if (trace) 2 else 1)) {
      if (trace && i % 2 == 1) {
        val (c0, m0) = Jvm.gc()
        session.pass(new Pass(traced, Some(tracer), reference = false, contentCheck = i == 1, refs, errors))
        val (c1, m1) = Jvm.gc()
        gcCount += c1 - c0; gcMs += m1 - m0
      } else session.pass(new Pass(plain, None, reference = false, contentCheck = false, refs, errors))
      i += 1
    }

    def stage(name: String): Option[Metric] = {
      val xs = stageRuns.flatMap(_.ms.get(name))
      if (xs.isEmpty) None else Some(Metric(name, Samples.median(xs.toSeq), "ms", xs.size))
    }

    val metrics: Seq[Metric] =
      if (!trace) endToEnd(plain, Samples.median(setupSeconds.toSeq), setupSeconds.size, heapMb)
      else {
        opts.get("spans").foreach(f => tracer.writeCsv(new File(f)))
        perLayer(plain, traced, tracer, gcCount, gcMs) ++
          Seq("graphgen.generate_ms", "tel.build_ms").flatMap(stage)
      }
    val extras: Seq[Metric] =
      if (!trace) Seq(
        pct(plain, "otcd_ms", 50, "otcd_ms_p50", "ms"),
        pct(crossSamples, "tcd_ms", 50, "tcd_ms_p50", "ms"),
        pct(crossSamples, "tcd_ms", 90, "tcd_ms_p90", "ms"),
        pct(crossSamples, "baseline_ms", 50, "baseline_ms_p50", "ms"),
        med(plain, "append_us_per_edge", "append_us_per_edge", "us"),
      ).flatten :+
        Metric("error_rate", errors.failed.toDouble / errors.attempted, "ratio", errors.attempted.toInt)
      else {
        val t = tracer.totals()
        def perCall(span: String, name: String) =
          Option.when(t(span).calls > 0)(Metric(name, t(span).ms / t(span).calls, "ms", t(span).calls.toInt))
        Seq(stage("phc.build_ms"), perCall("tel.add_edge", "tel.add_edge_ms")).flatten
      }

    println(s"workload ${workload.name}, seed $seed, ${i} passes in ${seconds}s, " +
      s"attempted ${errors.attempted}, failed ${errors.failed}")
    (metrics ++ extras).foreach { m =>
      println(f"  ${m.name}%-28s ${m.value}%14.4f ${m.unit}%-6s n=${m.samples}")
    }
    val json = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    println(s"""{"correct": ${errors.failed == 0}, "attempted": ${errors.attempted}, """ +
      s""""failed": ${errors.failed}, "metrics": {${json.mkString(", ")}}}""")
    System.out.flush()
    sys.exit(0)
  }

  private def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v")
    v.toString
  }

  private def pct(s: Samples, key: String, p: Double, name: String, unit: String): Option[Metric] = {
    val xs = s(key)
    if (xs.isEmpty) None else Some(Metric(name, Samples.percentile(xs, p), unit, xs.size))
  }

  private def med(s: Samples, key: String, name: String, unit: String): Option[Metric] = {
    val xs = s(key)
    if (xs.isEmpty) None else Some(Metric(name, Samples.median(xs), unit, xs.size))
  }

  private def mean(s: Samples, key: String, name: String, unit: String): Option[Metric] = {
    val xs = s(key)
    if (xs.isEmpty) None else Some(Metric(name, xs.sum / xs.size, unit, xs.size))
  }

  private def endToEnd(s: Samples, setupS: Double, setupRuns: Int, heapMb: Double): Seq[Metric] = Seq(
    Some(Metric("setup_s", setupS, "s", setupRuns)),
    Some(Metric("tel_heap_mb", heapMb, "MB", MinSetups)),
    mean(s, "otcd_ms", "otcd_ms_mean", "ms"),
    pct(s, "otcd_ms", 90, "otcd_ms_p90", "ms"),
    mean(s, "alloc_mb", "alloc_mb_per_query", "MB"),
  ).flatten

  /** Per-layer metrics of the traced passes, per traced OTCD query unless
    * the name says otherwise.
    */
  private def perLayer(
      plain: Samples, traced: Samples, tr: Tracer, gcCount: Long, gcMs: Long): Seq[Metric] = {
    val t = tr.totals()
    val q = t("tcq.query")
    val n = q.calls.toInt
    def per(name: String, v: Double, unit: String) = Metric(name, v / n, unit, n)
    def mean(name: String, key: String) = Metric(name, traced(key).sum / n, "count", n)
    val copies = t("tel.copy").calls + t("tel.copy_range").calls
    val children = Seq("tel.copy_range", "tel.copy", "tel.truncate", "tel.decompose", "tel.snapshot")
      .map(t(_).ns).sum
    require(children + q.selfNs == q.ns, "tel.* children and tcq.self do not sum to the query spans")
    val overhead = 100 * (Samples.median(traced("otcd_ms")) / Samples.median(plain("otcd_ms")) - 1)
    Seq(
      per("tcq.query_ms", q.ms, "ms"),
      per("tcq.self_ms", q.selfMs, "ms"),
      per("tel.copy_ms", t("tel.copy").ms, "ms"),
      per("tel.copy_calls", t("tel.copy").calls.toDouble, "count"),
      per("tel.copy_edges", t("tel.copy").work.toDouble, "count"),
      per("tel.copy_range_ms", t("tel.copy_range").ms, "ms"),
      per("tel.copy_range_edges", t("tel.copy_range").work.toDouble, "count"),
      per("tel.truncate_ms", t("tel.truncate").ms, "ms"),
      per("tel.truncate_deleted_edges", t("tel.truncate").work.toDouble, "count"),
      per("tel.decompose_ms", t("tel.decompose").ms, "ms"),
      per("tel.decompose_deleted_edges", t("tel.decompose").work.toDouble, "count"),
      per("tel.snapshot_ms", t("tel.snapshot").ms, "ms"),
      per("tel.snapshot_edges", t("tel.snapshot").work.toDouble, "count"),
      per("tel.empty_snapshots", t("tel.snapshot").zeroWork.toDouble, "count"),
      mean("tcq.cells_visited", "query.cells_visited"),
      mean("tcq.cells_total", "query.cells_total"),
      mean("tcq.cells_pruned", "query.cells_pruned"),
      mean("tcq.induced_cores", "query.induced"),
      mean("tcq.duplicate_cores", "query.duplicates"),
      Metric("tcq.cores_per_copy", traced("query.cores").sum / copies, "ratio", n),
      per("jvm.gc_ms", gcMs.toDouble, "ms"),
      per("jvm.gc_count", gcCount.toDouble, "count"),
      Metric("trace.overhead_pct", overhead, "%", traced("otcd_ms").size),
    )
  }
}
