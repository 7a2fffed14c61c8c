package repro.dist

import repro.core.{Interval, OTCD, TEL, TELEngine, TestGraphs}
import repro.SparkSpec

/** DataFrame → TEL construction. */
class TELBuilderSpec extends SparkSpec {

  test("TEL built from a DataFrame equals TEL built locally") {
    val es = TestGraphs.random(241, nV = 20, nE = 150, horizon = 12)
    val fromDf = TELBuilder.fromDataFrame(EdgeOps.toDF(spark, es))
    val local = TEL.fromEdges(es)
    assert(fromDf.numAliveEdges == local.numAliveEdges)
    assert(fromDf.numVertices == local.numVertices)
    assert(fromDf.edges.sortBy(e => (e.t, e.u, e.v)) == local.edges.sortBy(e => (e.t, e.u, e.v)))
    assert(fromDf.tti == local.tti)
  }

  test("unsorted DataFrame input is sorted by the builder") {
    val es = TestGraphs.random(251, nV = 10, nE = 60, horizon = 10)
    val shuffled = new scala.util.Random(1).shuffle(es)
    val tel = TELBuilder.fromDataFrame(EdgeOps.toDF(spark, shuffled))
    assert(tel.timestamps == es.map(_.t).distinct.sorted.toVector)
  }

  test("decomposition on a DataFrame-built TEL matches reference") {
    val es = TestGraphs.random(257, nV = 16, nE = 90, horizon = 10)
    val tel = TELBuilder.fromDataFrame(EdgeOps.toDF(spark, es))
    tel.tcd(2, 3, 8)
    val exp = repro.core.KCore.core(es.filter(e => e.t >= 3 && e.t <= 8), 2)
    assert(tel.snapshot().map(_.canonicalKey) == exp.map(_.canonicalKey))
  }

  test("strength bound is honoured") {
    val tel = TELBuilder.fromDataFrame(EdgeOps.toDF(spark, TestGraphs.multiEdge), h = 2)
    tel.decompose(1)
    assert(tel.strengthOf(1, 3) == 0)
    assert(tel.strengthOf(1, 2) == 3)
  }

  test("empty DataFrame gives an empty TEL") {
    val tel = TELBuilder.fromDataFrame(EdgeOps.toDF(spark, Seq.empty))
    assert(tel.isEmpty && tel.tti.isEmpty)
  }

  test("full pipeline: DataFrame -> TEL -> OTCD equals local OTCD") {
    val es = TestGraphs.random(263, nV = 16, nE = 100, horizon = 10)
    val tel = TELBuilder.fromDataFrame(EdgeOps.toDF(spark, es))
    val viaDf = OTCD.run(new TELEngine(tel), 2, Interval(1, 10))
    val local = OTCD.run(new TELEngine(es), 2, Interval(1, 10))
    assert(TestGraphs.keySet(viaDf.cores) == TestGraphs.keySet(local.cores))
  }
}
