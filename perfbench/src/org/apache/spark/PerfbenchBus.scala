package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so
  * that job and task spans of finished queries are all recorded. The bus is
  * private to the `org.apache.spark` package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
