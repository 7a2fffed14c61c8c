package repro.dist

import repro.core.{Interval, OTCD, TCD, TELEngine, TestGraphs}
import repro.SparkSpec

/** Distributed TCQ (the OTCD schedule over a [[DFEngine]], whose TCD
  * operations are DataFrame jobs) vs the in-memory TEL path. Windows are
  * kept small: every cell is a Spark job.
  */
class DistTCQSpec extends SparkSpec {

  test("distributed TCQ equals OTCD on the example graph") {
    val df = EdgeOps.toDF(spark, TestGraphs.example)
    val dist = OTCD.run(new DFEngine(df), 2, TestGraphs.exampleWindow)
    val local = OTCD.run(new TELEngine(TestGraphs.example), 2, TestGraphs.exampleWindow)
    assert(TestGraphs.keySet(dist.cores) == TestGraphs.keySet(local.cores))
    assert(dist.count == 5)
  }

  test("distributed TCQ equals OTCD on a random graph") {
    val es = TestGraphs.random(269, nV = 14, nE = 80, horizon = 6)
    val df = EdgeOps.toDF(spark, es)
    val dist = OTCD.run(new DFEngine(df), 2, Interval(1, 6))
    val local = OTCD.run(new TELEngine(es), 2, Interval(1, 6))
    assert(TestGraphs.keySet(dist.cores) == TestGraphs.keySet(local.cores))
  }

  test("distributed TCQ honours the link-strength constraint") {
    val df = EdgeOps.toDF(spark, TestGraphs.multiEdge)
    val dist = OTCD.run(new DFEngine(df, h = 2), 1, Interval(1, 6))
    val local = OTCD.run(new TELEngine(TestGraphs.multiEdge, h = 2), 1, Interval(1, 6))
    assert(TestGraphs.keySet(dist.cores) == TestGraphs.keySet(local.cores))
  }

  test("distributed TCQ without pruning equals with pruning") {
    val es = TestGraphs.random(271, nV = 12, nE = 60, horizon = 5)
    val df = EdgeOps.toDF(spark, es)
    val engine = new DFEngine(df)
    val a = OTCD.run(engine, 2, Interval(1, 5))
    val b = TCD.run(engine, 2, Interval(1, 5))
    assert(TestGraphs.keySet(a.cores) == TestGraphs.keySet(b.cores))
  }
}
