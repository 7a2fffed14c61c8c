package repro.baseline

import java.util.Arrays.copyOf

/** A minimal long-keyed binary min-heap. iPHC-Query ([[IPHCQuery]]) keeps
  * its two heaps in it: H_v over packed `(core time, vertex index)` keys and
  * H_e over packed `(timestamp, edge)` keys (Algorithm 1, §2.3.2).
  */
private[baseline] final class LongMinHeap(initialCapacity: Int) {
  private var arr = new Array[Long](math.max(4, initialCapacity))
  private var n = 0

  def nonEmpty: Boolean = n > 0

  def push(key: Long): Unit = {
    if (n == arr.length) arr = copyOf(arr, arr.length * 2)
    arr(n) = key
    var i = n
    n += 1
    while (i > 0) {
      val p = (i - 1) >> 1
      if (arr(p) <= arr(i)) return
      val tmp = arr(p); arr(p) = arr(i); arr(i) = tmp
      i = p
    }
  }

  def peek: Long = arr(0)

  def pop(): Long = {
    val top = arr(0)
    n -= 1
    arr(0) = arr(n)
    siftDown(0)
    top
  }

  private def siftDown(start: Int): Unit = {
    var i = start
    var continue = true
    while (continue) {
      val l = 2 * i + 1
      val r = l + 1
      var m = i
      if (l < n && arr(l) < arr(m)) m = l
      if (r < n && arr(r) < arr(m)) m = r
      if (m == i) continue = false
      else { val tmp = arr(m); arr(m) = arr(i); arr(i) = tmp; i = m }
    }
  }
}
