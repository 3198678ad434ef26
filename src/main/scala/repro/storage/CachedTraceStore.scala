package repro.storage

import java.io.{DataOutputStream, FileOutputStream, RandomAccessFile}
import java.util.{LinkedHashMap => JLinkedHashMap, Map => JMap}

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{TraceSource, TraceStore}
import repro.spindex.SpIndex

/** Memory-constrained trace source: the §6.6 substrate.
  *
  * The paper sweeps the memory allocated to the index server relative to
  * the raw data, paging entity records off an HDD (1,750 MiB/s throughput-
  * optimized EBS). We reproduce the same hit/miss asymmetry with:
  *
  *  - an on-disk binary record file (one fully-rolled-up trace per entity,
  *    found via an offset index), written in entity-id order — not in the
  *    paper's MinSigTree order, so a leaf's members are not adjacent on
  *    disk; misses are read from it on the driver;
  *  - a bounded LRU cache of decoded traces (the allocated memory);
  *  - a simulated device latency charged per miss batch (seek,
  *    `SeekMicros`) and per missed entity (transfer, `PerEntityMicros`),
  *    since the page cache would otherwise hide the device (DESIGN.md §3).
  *
  * `prefetch` batches a leaf's misses into one seek, mirroring the
  * sequential block reads the paper relies on.
  */
final class CachedTraceStore(
    val sp: SpIndex,
    path: String,
    index: Map[Long, (Long, Int)], // entity -> (offset, byte length)
    val capacity: Int,
    seekMicros: Long,
    perEntityMicros: Long,
) extends TraceSource {

  /** Cache misses (each missed entity = one record read) and hits so far. */
  @volatile var misses: Long = 0L
  @volatile var hits: Long = 0L

  private val file = new RandomAccessFile(path, "r")

  // Access-ordered: even `get` relinks entries, so every use holds the lock.
  private val cache =
    new JLinkedHashMap[Long, Array[Array[Long]]](capacity + 1, 0.75f, /*accessOrder=*/ true) {
      override def removeEldestEntry(e: JMap.Entry[Long, Array[Array[Long]]]): Boolean =
        size > capacity
    }

  def contains(e: Long): Boolean = index.contains(e)

  def levelCells(e: Long, level: Int): Array[Long] = synchronized {
    val v = cache.get(e)
    if (v == null) load(Seq(e)).head(level - 1)
    else { hits += 1; v(level - 1) }
  }

  override def prefetch(es: Iterable[Long]): Unit = synchronized {
    val missing = es.filter(e => cache.get(e) == null).toSeq.distinct
    if (missing.nonEmpty) load(missing)
  }

  /** Reads, decodes and caches `es` as one device batch; returns the
    * records in order. Callers hold the lock.
    */
  private def load(es: Seq[Long]): Seq[Array[Array[Long]]] = {
    misses += es.size
    // Simulated device: one seek per batch plus per-record transfer time.
    val nanos = (seekMicros + perEntityMicros * es.size) * 1000
    val deadline = System.nanoTime() + nanos
    val records = es.map { e =>
      val (off, len) = index(e)
      val buf = new Array[Byte](len)
      file.seek(off)
      file.readFully(buf)
      val v = CachedTraceStore.decode(buf, sp.m)
      cache.put(e, v)
      v
    }
    while (System.nanoTime() < deadline) Thread.onSpinWait()
    records
  }
}

object CachedTraceStore {

  val SeekMicros = 1000L
  val PerEntityMicros = 50L

  private[storage] def decode(buf: Array[Byte], m: Int): Array[Array[Long]] = {
    val in = new java.io.DataInputStream(new java.io.ByteArrayInputStream(buf))
    Array.fill(m) {
      val n = in.readInt()
      Array.fill(n)(in.readLong())
    }
  }

  /** Persist cells to a record file (entities written in id order) and open
    * a store with the given capacity.
    */
  def create(
      spark: SparkSession,
      cells: DataFrame,
      sp: SpIndex,
      path: String,
      capacity: Int,
      seekMicros: Long = SeekMicros,
      perEntityMicros: Long = PerEntityMicros,
  ): CachedTraceStore = {
    val mem = TraceStore.fromCells(spark, cells, sp)
    java.nio.file.Files.createDirectories(java.nio.file.Paths.get(path).getParent)
    val out = new DataOutputStream(new FileOutputStream(path))
    var offset = 0L
    val index = Map.newBuilder[Long, (Long, Int)]
    mem.entities.toSeq.sorted.foreach { e =>
      val bytes = new java.io.ByteArrayOutputStream()
      val d = new DataOutputStream(bytes)
      (1 to sp.m).foreach { l =>
        val arr = mem.levelCells(e, l)
        d.writeInt(arr.length)
        arr.foreach(d.writeLong)
      }
      val buf = bytes.toByteArray
      out.write(buf)
      index += e -> ((offset, buf.length))
      offset += buf.length
    }
    out.close()
    new CachedTraceStore(sp, path, index.result(), capacity, seekMicros, perEntityMicros)
  }
}
