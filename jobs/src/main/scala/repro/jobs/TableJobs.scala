package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Interval, OTCD, TELEngine}
import repro.dist.{EdgeOps, TELBuilder}
import repro.exp.Tables
import repro.graphgen.Datasets

/** Shared SparkSession bootstrap for the job entrypoints. */
object JobSession {
  def get(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
}

/** `spark-submit` entrypoint reproducing one evaluation table. Usage:
  * `TableJob <1-6>`: 1 TEL manipulation costs, 2 dataset statistics,
  * 3 selected queries and the Baseline/TCD/OTCD response times of Fig. 7,
  * 4 pruning-rule effect, 5 memory consumption, 6 one-day 10-cores.
  */
object TableJob {
  def main(args: Array[String]): Unit = println(args.toSeq match {
    case Seq("1") => Tables.table1()._2
    case Seq("2") => Tables.table2()._2
    case Seq("3") => Tables.table3()._2
    case Seq("4") => Tables.table4()._2
    case Seq("5") => Tables.table5()._2
    case Seq("6") => Tables.table6()._2
    case _ => sys.error(s"usage: TableJob <1-6>, got ${args.mkString(" ")}")
  })
}

/** End-to-end Spark pipeline job: dataset → edge DataFrame (Catalyst sort)
  * → TEL → OTCD. Usage: `TCQJob <dataset> <k> <ts> <te>`; defaults to a
  * window of query 1 on collegemsg-lite.
  */
object TCQJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("repro-tcq")
    try {
      val (dataset, k, window) =
        if (args.length >= 4) (args(0), args(1).toInt, Interval(args(2).toInt, args(3).toInt))
        else {
          val q = Datasets.queryById(1)
          (q.dataset, q.k, q.window)
        }
      val g = Datasets.generate(dataset)
      val df = EdgeOps.toDF(spark, g.edges)
      val tel = TELBuilder.fromDataFrame(df)
      println(s"built TEL from DataFrame: ${tel.numAliveEdges} edges, ${tel.numVertices} vertices")
      val res = OTCD.run(new TELEngine(tel), k, window)
      println(s"TCQ($dataset, k=$k, $window): ${res.count} distinct temporal $k-cores")
      res.cores.sortBy(_.tti.ts).foreach { c =>
        println(f"  TTI ${c.tti}%-12s |V|=${c.numVertices}%-6d |E|=${c.numEdges}%-6d")
      }
    } finally spark.stop()
  }
}
