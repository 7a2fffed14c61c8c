package repro.core

import java.util.Arrays.copyOf

/** Open-addressing `Long -> Int` dictionary on two primitive arrays (linear
  * probing, Fibonacci hashing, no removal) for non-negative keys. TEL uses it
  * for the external-id and vertex-pair dictionaries behind `addEdge`,
  * `degreeOf` and `strengthOf`.
  */
private[core] final class LongIntMap(expected: Int) {
  private var keys: Array[Long] = _
  private var vals: Array[Int] = _
  private var shift = 0
  private var n = 0
  alloc(Integer.highestOneBit(math.max(8, 2 * expected) - 1) << 1)

  private def alloc(capacity: Int): Unit = {
    keys = new Array[Long](capacity)
    java.util.Arrays.fill(keys, -1L)
    vals = new Array[Int](capacity)
    shift = 64 - Integer.numberOfTrailingZeros(capacity)
  }

  private def slot(key: Long): Int = ((key * 0x9E3779B97F4A7C15L) >>> shift).toInt

  /** Value stored under `key`, or -1. */
  def get(key: Long): Int = {
    val mask = keys.length - 1
    var i = slot(key)
    while (keys(i) != -1L) {
      if (keys(i) == key) return vals(i)
      i = (i + 1) & mask
    }
    -1
  }

  /** Value stored under `key`; if there is none, stores `fresh` and returns it. */
  def getOrPut(key: Long, fresh: Int): Int = {
    if (2 * (n + 1) > keys.length) {
      val (ks, vs) = (keys, vals)
      alloc(keys.length * 2)
      n = 0
      var j = 0
      while (j < ks.length) { if (ks(j) != -1L) getOrPut(ks(j), vs(j)); j += 1 }
    }
    val mask = keys.length - 1
    var i = slot(key)
    while (keys(i) != -1L) {
      if (keys(i) == key) return vals(i)
      i = (i + 1) & mask
    }
    keys(i) = key; vals(i) = fresh; n += 1
    fresh
  }

  def bytes: Long = TEL.arrayBytes(keys.length, 8) + TEL.arrayBytes(vals.length, 4)
}

/** Temporal Edge List (paper §5.1) — the in-memory representation of a
  * temporal graph on which TCD operations execute.
  *
  * All state lives in plain arrays indexed by dense, instance-local `Int`
  * ids: edges, vertices and vertex pairs are numbered in order of
  * appearance, and an id table maps local vertices back to their external
  * `Long` ids for output. Edge ids ascend with timestamps: `addEdge` and
  * `copyRange` append in time order, and `copy()` keeps ids.
  *
  * '''The timeline''' is the slot range `[head, tail]`. The TEL deletes
  * edges in two ways only: truncation at an end of the timeline, and a peel
  * or a §6.2 purge of a whole pair. So an edge needs no links and no mark:
  * edge `e` is alive iff `head <= e <= tail` and `strength(epair(e)) > 0`.
  * Both ends always sit on alive edges (an empty TEL has `head = nEdges`,
  * `tail = nEdges - 1`), which gives `get_TTI` in O(1); the paper's TL(t) is
  * the timeline's run of alive edges at `t`, and its `del_TL` a run of
  * `del_edge`s at an end (Table 1). A pair with strength `c > 0` has exactly
  * `c` slots on the timeline, and deleting it is O(1): its strength becomes
  * its death stamp (below), a number `<= 0`, which kills its remaining slots
  * at once, and the ends then move inward past the dead slots they meet.
  *
  * '''NL(v)''', in place of the paper's SL(v) / DL(v), lists every pair of
  * `v`, alive or dead: it is `nl(nlStart(v) until nlStart(v + 1))`, a
  * counting sort of the pairs by the endpoints of their first edge,
  * `pairEdge(p)`. A pair counts iff its strength is positive, and `degree(v)`
  * is a counter of `v`'s pairs that do: its ''distinct neighbours'' (the
  * paper's degree), whatever the orientation of the pair's edges. A pair's
  * first alive edge adds 1 at both endpoints, and deleting the pair takes
  * it off. NL is built by the first `decompose` or `copy()` that finds it
  * does not cover every pair, is never written afterwards, and is shared by
  * copies; masters, which only append and `copyRange`, hold none, and one
  * that gains pairs after an NL was built gets a fresh one the same way.
  *
  * Every edge stores its endpoints, its pair slot and its timestamp, all
  * written once, so `del_edge` and with it `truncate` and `decompose` touch
  * arrays only. A deleted edge keeps its slot.
  * Decomposition peels with a fixed `k` instead of the paper's H_v min-heap:
  * a stack holds the vertices whose degree fell below the `k` of the last
  * `decompose`, and a degree change costs O(1); peeling `v` deletes the
  * pairs on NL(v) that still have strength. The stack is allocated at the
  * first `decompose`, so masters, which never peel, carry none.
  *
  * '''Snapshots''' are O(1) because every pair death is stamped: it ticks
  * `clock` and leaves the pair's strength at `-clock`. A handle keeps
  * `head`, `tail` and `clock`, and holds this TEL's `strength` array and
  * write-once columns by reference. On first read it keeps the slots `e` of
  * its range with `s > 0 || -s > clock`, where `s = strength(epair(e))`: the
  * pairs alive now, or dead since the snapshot. A later deletion stamps a
  * newer death or lowers a surviving pair's strength, and a later append,
  * which only a TEL that has deleted nothing takes, raises a positive
  * strength or writes slots past the handle's range, so these are exactly
  * the edges alive at the snapshot. No dead pair is ever revived: a pair
  * dies at most once, so `clock <= nPairs` and the clock cannot wrap.
  *
  * The §6.2 purge defers no work. Truncation deletes a whole pair once its
  * strength would fall below `h`; an append that leaves a pair in `(0, h)`
  * sets `weak`, and the next `truncate` or `decompose` deletes every such
  * pair in one pass over the pairs. At `h = 1` neither happens apart from
  * a pair losing its last edge.
  *
  * Copies cost no hashing. `copy()` copies two arrays, `degree` and
  * `strength`, O(|V| + pairs), and carries `clock`; the write-once columns,
  * every per-edge array and NL among them, are shared with the source, which
  * appends only into slots past the copy's counts or into grown arrays;
  * `copyRange(ts, te)` finds the window's edge slots by binary search on the
  * timestamps and compacts its alive edges, their vertices and pairs into
  * fresh ids through array remaps, so the result is sized by the window, not
  * by the source. Over the whole timeline it rebuilds a TEL compactly: a TCQ
  * row source, kept peeled, is replaced by such a rebuild once fewer than half
  * of its edge slots are alive, so every row copies a mostly-alive prefix.
  * The only hash lookups are the external-id and pair dictionaries behind
  * `addEdge`, `degreeOf` and `strengthOf`; a copy rebuilds them from its
  * arrays the first time one of those is called.
  *
  * Instances are single-threaded and mutable. `addEdge` implements the
  * dynamic-graph extension (§6.1): timestamps may only append at or after the
  * last appended one, and only to a TEL that has deleted no edge and was not
  * made by `copy()`. As in the paper, only the master grows, and every query
  * works on a copy of it (§5.2): masters never delete, and copies never
  * append.
  *
  * @param h link-strength lower bound (§6.2); 1 = plain TCQ semantics
  */
final class TEL private (val h: Int, edgeCapacity: Int) {
  import TEL.{arrayBytes, pairKey}
  require(h >= 1, s"link strength h must be >= 1, got $h")

  // ---- edges: local ids [0, nEdges) in timestamp order, all write-once;
  // alive iff in [head, tail] with a pair of positive strength ----
  private var eu, ev, et, epair: Array[Int] = new Array[Int](edgeCapacity)
  private var nEdges = 0
  private var nAlive = 0
  private var head = 0 // first and last alive edge: the ends of the timeline
  private var tail = -1

  // ---- vertices: local ids [0, nVerts), external id in `ext` ----
  private var ext: Array[Long] = new Array[Long](16)
  private var degree: Array[Int] = new Array[Int](16) // pairs of v with strength > 0
  private var nVerts = 0
  private var nLive = 0 // vertices with degree > 0

  // ---- vertex pairs: strength = alive parallel edges, or -(death stamp)
  // once deleted; pairEdge = the pair's first edge, write-once ----
  private var pairEdge, strength: Array[Int] = new Array[Int](16)
  private var nPairs = 0
  private var clock = 0 // the last death stamp: pair deletions so far
  private var weak = false // an append may have left a pair in (0, h) (§6.2)

  // ---- NL(v) = nl(nlStart(v) until nlStart(v + 1)): every pair of v, alive
  // or dead; write-once, null until a decompose or copy() builds it ----
  private var nl, nlStart: Array[Int] = null

  private var peelK = 0                     // k of the last decompose; 0 = rescan
  private var below: Array[Int] = null      // stack of vertices below peelK
  private var nBelow = 0
  private var vertexIds: LongIntMap = null  // external id -> local vertex
  private var pairIds: LongIntMap = null    // pairKey(local u, local v) -> pair
  // False for a TEL made by copy(): it shares the write-once columns (eu, ev,
  // et, epair, pairEdge, ext, nl, nlStart) with its source, and never appends.
  private var ownsColumns = true

  // ---------------------------------------------------------------- queries

  def numAliveEdges: Int = nAlive
  def numVertices: Int = nLive
  def isEmpty: Boolean = nAlive == 0
  def vertices: Iterator[Long] = Iterator.range(0, nVerts).filter(degree(_) > 0).map(ext(_))

  def degreeOf(v: Long): Int = {
    dictionaries()
    val x = vertexIds.get(v)
    if (x < 0) 0 else degree(x)
  }

  def strengthOf(u: Long, v: Long): Int = {
    dictionaries()
    val a = vertexIds.get(u)
    val b = vertexIds.get(v)
    val p = if (a < 0 || b < 0) -1 else pairIds.get(pairKey(a, b))
    if (p < 0) 0 else math.max(strength(p), 0)
  }

  /** `get_TTI` (Table 1): head and tail of the timeline, O(1). */
  def tti: Option[Interval] = if (nAlive == 0) None else Some(Interval(et(head), et(tail)))

  /** Largest alive timestamp, O(1); None when empty. */
  def maxTimestamp: Option[Int] = if (nAlive == 0) None else Some(et(tail))

  /** Alive distinct timestamps in ascending order (scans the timeline). */
  def timestamps: Vector[Int] = edges.map(_.t).distinct

  /** All alive edges in timeline order. */
  def edges: Vector[TemporalEdge] = aliveEdges()()

  /** Snapshot the current graph as a [[CoreResult]] handle (None when
    * empty), in O(1): the sizes are the counters, and the handle keeps the
    * timeline's ends and `clock` over this TEL's `strength` array and
    * write-once columns. It builds its edges on first read, from the pairs
    * alive now or stamped dead since (see the class doc), so later
    * `truncate`, `decompose` or `addEdge` calls on this TEL or its copies do
    * not change them.
    */
  def snapshot(): Option[CoreResult] =
    tti.map(i => CoreResult.deferred(i, nLive, nAlive)(aliveEdges()))

  /** Builds, when called, the edges alive now: one scan of the slots in
    * `[head, tail]` that keeps those whose pair has strength or died after
    * the current `clock`. It holds the arrays, not this TEL: deletions only
    * stamp later deaths or lower surviving strengths, appends only raise
    * positive ones, and slots below the current counts of the write-once
    * columns are never written again (`append`, `newVertex` and `newPair`
    * write only fresh slots; growth moves to new arrays).
    */
  private def aliveEdges(): () => Vector[TemporalEdge] = {
    val from = head; val to = tail; val at = clock; val n = nAlive
    val u = eu; val v = ev; val t = et; val pe = epair; val x = ext; val s = strength
    () => {
      val b = Vector.newBuilder[TemporalEdge]
      b.sizeHint(n)
      var e = from
      while (e <= to) {
        val c = s(pe(e))
        if (c > 0 || -c > at) b += TemporalEdge(x(u(e)), x(v(e)), t(e))
        e += 1
      }
      b.result()
    }
  }

  // ------------------------------------------------------------ construction

  private def growEdges(): Unit = {
    val cap = math.max(16, eu.length * 2)
    eu = copyOf(eu, cap); ev = copyOf(ev, cap); et = copyOf(et, cap); epair = copyOf(epair, cap)
  }

  /** The local vertex of external id `id`; a fresh one if there is none. */
  private def vertexSlot(id: Long): Int = {
    val x = vertexIds.getOrPut(id, nVerts)
    if (x == nVerts) newVertex(id) else x
  }

  /** The pair slot of local vertices `a` and `b`; a fresh one if there is none. */
  private def pairSlot(a: Int, b: Int): Int = {
    val p = pairIds.getOrPut(pairKey(a, b), nPairs)
    if (p == nPairs) newPair() else p
  }

  /** Allocates local vertex `nVerts`, with external id `id`, and returns it. */
  private def newVertex(id: Long): Int = {
    if (nVerts == ext.length) {
      val cap = math.max(16, ext.length * 2)
      ext = copyOf(ext, cap); degree = copyOf(degree, cap)
    }
    val x = nVerts
    nVerts += 1
    ext(x) = id; degree(x) = 0
    x
  }

  /** Allocates pair slot `nPairs`, with no alive edges, and returns it. Its
    * first edge is the next one appended, at slot `nEdges`.
    */
  private def newPair(): Int = {
    if (nPairs == pairEdge.length) {
      val cap = math.max(16, pairEdge.length * 2)
      pairEdge = copyOf(pairEdge, cap); strength = copyOf(strength, cap)
    }
    val p = nPairs
    nPairs += 1
    pairEdge(p) = nEdges; strength(p) = 0
    p
  }

  /** Builds NL if it does not cover every pair: a counting sort of the
    * pairs by both endpoints of their first edges, into fresh arrays, so an
    * NL that copies share is never written.
    */
  private def buildNl(): Unit = if (nl == null || nl.length != 2 * nPairs) {
    val start = new Array[Int](nVerts + 1) // sizes of the NL(x), then their ends, then starts
    for (p <- 0 until nPairs) { start(eu(pairEdge(p))) += 1; start(ev(pairEdge(p))) += 1 }
    for (x <- 1 to nVerts) start(x) += start(x - 1)
    val list = new Array[Int](2 * nPairs)
    def put(x: Int, p: Int): Unit = { start(x) -= 1; list(start(x)) = p }
    for (p <- nPairs - 1 to 0 by -1) { put(eu(pairEdge(p)), p); put(ev(pairEdge(p)), p) }
    nl = list; nlStart = start
  }

  /** Vertex `x` gains a neighbour: one of its pairs gained its first alive edge. */
  private def gainNeighbour(x: Int): Unit = { degree(x) += 1; if (degree(x) == 1) nLive += 1 }

  /** Vertex `x` loses a neighbour; it joins the peel stack on falling to `peelK - 1`. */
  private def loseNeighbour(x: Int): Unit = {
    val d = degree(x) - 1
    degree(x) = d
    if (d == 0) nLive -= 1
    else if (d == peelK - 1) { below(nBelow) = x; nBelow += 1 }
  }

  /** Builds the external-id and pair dictionaries if this instance is a copy
    * that has none yet.
    */
  private def dictionaries(): Unit = if (vertexIds == null) {
    vertexIds = new LongIntMap(nVerts)
    var x = 0
    while (x < nVerts) { vertexIds.getOrPut(ext(x), x); x += 1 }
    pairIds = new LongIntMap(nPairs)
    var p = 0
    while (p < nPairs) { pairIds.getOrPut(pairKey(eu(pairEdge(p)), ev(pairEdge(p))), p); p += 1 }
  }

  /** Appends edge `(u, v, t)` of pair `p` in local ids as the new tail of
    * the timeline, plus the strength update; a pair's first alive edge also
    * adds a neighbour to `u` and `v`. The caller keeps `t` no earlier
    * than the last appended edge's, on a TEL that has deleted nothing, so no
    * strength is negative.
    */
  private def append(u: Int, v: Int, p: Int, t: Int): Unit = {
    if (nEdges == eu.length) growEdges()
    val e = nEdges
    nEdges += 1
    nAlive += 1
    eu(e) = u; ev(e) = v; et(e) = t; epair(e) = p
    tail = e // an empty TEL already has head = e
    val c = strength(p) + 1
    strength(p) = c
    if (c == 1) { gainNeighbour(u); gainNeighbour(v) }
    if (c < h) weak = true
  }

  /** `add_edge(u, v, t)` (§6.1): dynamic append. Requires `u != v`,
    * non-negative ids (the id dictionary keeps -1 as its empty key), and `t`
    * no earlier than the last appended edge's timestamp, so edge ids stay in
    * timestamp order. Also requires a TEL that has deleted no edge and was
    * not made by `copy()`: only the master grows, and queries work on copies
    * of it (§5.2). So no dead pair is ever revived, which keeps the handles
    * and copies of this TEL exact, and no copy writes into shared columns.
    */
  def addEdge(u: Long, v: Long, t: Int): Unit = {
    require(u != v, s"self-loop ($u,$v,$t) not allowed")
    require(u >= 0 && v >= 0, s"vertex ids must be non-negative, got ($u,$v)")
    require(nEdges == 0 || t >= et(nEdges - 1),
      s"timestamps must be appended in order: $t < ${et(nEdges - 1)}")
    require(ownsColumns && nAlive == nEdges, "addEdge needs a TEL that is not a copy and has " +
      s"deleted no edge; copy = ${!ownsColumns}, deleted edges = ${nEdges - nAlive}")
    dictionaries()
    // New vertices may sit below k without ever crossing it, even after a
    // decompose that deleted nothing.
    peelK = 0
    val a = vertexSlot(u)
    val b = vertexSlot(v)
    append(a, b, pairSlot(a, b), t)
  }

  // -------------------------------------------------------------- deletion

  /** `del_edge(e)` (Table 1) for `e` the head or the tail of the timeline.
    * A pair whose strength is at most `h` goes whole: below `h` it would be
    * purged anyway (§6.2), and at `h = 1` this is its last edge. Otherwise
    * the pair survives, and only the end that held `e` moves, past `e` and
    * the dead slots behind it: no other slot died, and a surviving pair
    * keeps that end from running off the timeline.
    */
  private def delEdge(e: Int): Unit = {
    val p = epair(e)
    if (strength(p) <= h) deletePair(p)
    else {
      nAlive -= 1
      strength(p) -= 1
      if (e == head) { head += 1; while (strength(epair(head)) <= 0) head += 1 }
      else { tail -= 1; while (strength(epair(tail)) <= 0) tail -= 1 }
    }
  }

  /** Deletes every alive edge of pair `p` at once: its strength becomes its
    * death stamp `-clock`, so none of its slots is alive, and both endpoints
    * of its first edge lose a neighbour. Then both ends of the timeline
    * settle: they move inward past slots whose pair is dead, so each sits on
    * an alive edge again; an empty TEL gets `head = nEdges`,
    * `tail = nEdges - 1`. A TEL that has deleted never appends, so its ends
    * only move inward, all settling of a TEL costs O(slots) in total, and a
    * deletion O(1) plus its share of that.
    */
  private def deletePair(p: Int): Unit = {
    nAlive -= strength(p)
    clock += 1
    strength(p) = -clock
    loseNeighbour(eu(pairEdge(p))); loseNeighbour(ev(pairEdge(p)))
    if (nAlive == 0) { head = nEdges; tail = nEdges - 1 }
    else {
      while (strength(epair(head)) <= 0) head += 1
      while (strength(epair(tail)) <= 0) tail -= 1
    }
  }

  /** Deletes every pair whose strength is in `(0, h)` (the modified TCD of
    * §6.2), in one pass over the pairs, if an append may have left one
    * there; deletions never do. A no-op when `h == 1`.
    */
  private def purgeWeak(): Unit = if (weak) {
    weak = false
    for (p <- 0 until nPairs if strength(p) > 0 && strength(p) < h) deletePair(p)
  }

  // --------------------------------------------------------- TCD operation

  /** Truncation phase of TCD (Algorithm 4 lines 1–14): remove every edge
    * with timestamp outside `[ts, te]`, from both ends of the timeline.
    */
  def truncate(ts: Int, te: Int): Unit = {
    while (nAlive > 0 && et(head) < ts) delEdge(head)
    while (nAlive > 0 && et(tail) > te) delEdge(tail)
    purgeWeak()
  }

  /** Decomposition phase of TCD (Algorithm 4 lines 15–24): peel vertices
    * with fewer than `k` distinct (strength-qualified) neighbours.
    *
    * Once a `decompose(k)` has run, every live vertex below `k` is on the
    * `below` stack: deleting a pair pushes an endpoint whose degree drops
    * from `k` to `k - 1`. A new `k`, or an `addEdge` since (after a
    * `decompose` that deleted nothing), needs one scan of the degrees. Without
    * appends degrees only fall, so each live vertex is pushed at most once per
    * scan and the stack never outgrows `nLive`.
    */
  def decompose(k: Int): Unit = {
    purgeWeak()
    buildNl()
    if (below == null || k != peelK) {
      if (below == null || below.length < nLive) below = new Array[Int](nLive)
      nBelow = 0
      var x = 0
      while (x < nVerts) {
        if (degree(x) > 0 && degree(x) < k) { below(nBelow) = x; nBelow += 1 }
        x += 1
      }
      peelK = k
    }
    while (nBelow > 0) {
      nBelow -= 1
      val v = below(nBelow)
      if (degree(v) > 0 && degree(v) < k) {
        // peel v: delete the pairs on NL(v) that still have strength; once
        // its degree is 0 the rest of NL(v) is dead
        var i = nlStart(v)
        while (degree(v) > 0) { if (strength(nl(i)) > 0) deletePair(nl(i)); i += 1 }
      }
    }
  }

  /** Full TCD operation: induce the temporal k-core of `[ts, te]` in place. */
  def tcd(k: Int, ts: Int, te: Int): Unit = { truncate(ts, te); decompose(k) }

  // ----------------------------------------------------------------- copies

  /** Fresh TEL holding only the alive edges with timestamps in `[ts, te]` —
    * the paper's "copy of TEL(G[Ts,Te]) obtained by truncating TEL(G)"
    * (§5.2) without mutating the source. The window's edge slots are one id
    * range, found by binary search on the timestamps and cut to the
    * timeline; its alive edges, vertices and pairs get fresh dense ids
    * through two `Int` remaps indexed by this TEL's vertex and pair ids. The
    * cost is O(slots in the window) plus one pass over the remaps.
    */
  def copyRange(ts: Int, te: Int): TEL = {
    val from = math.max(head, firstSlotAt(ts))
    // te + 1 as a Long, so te = Int.MaxValue does not wrap
    val until = math.min(tail + 1, firstSlotAt(te + 1L))
    var m = 0
    var e = from
    while (e < until) { if (strength(epair(e)) > 0) m += 1; e += 1 }
    val t = new TEL(h, m)
    val vertexOf = new Array[Int](nVerts) // local vertex here -> local vertex in t, or -1
    val pairOf = new Array[Int](nPairs)   // pair here -> pair in t, or -1
    java.util.Arrays.fill(vertexOf, -1)
    java.util.Arrays.fill(pairOf, -1)
    def vertex(x: Int): Int = {
      if (vertexOf(x) < 0) vertexOf(x) = t.newVertex(ext(x))
      vertexOf(x)
    }
    e = from
    while (e < until) {
      if (strength(epair(e)) > 0) {
        val a = vertex(eu(e))
        val b = vertex(ev(e))
        val p = epair(e)
        if (pairOf(p) < 0) pairOf(p) = t.newPair()
        t.append(a, b, pairOf(p), et(e))
      }
      e += 1
    }
    t
  }

  /** The first edge slot, alive or dead, with timestamp at least `t`
    * (`nEdges` if none), by binary search: slots ascend with timestamps.
    */
  private def firstSlotAt(t: Long): Int = {
    var lo = 0
    var hi = nEdges
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (et(mid) < t) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** True once fewer than half of the edge slots hold alive edges: the point
    * at which the row source's copies are better served by a TEL rebuilt with
    * `copyRange` over the whole timeline.
    */
  private[core] def sparse: Boolean = 2 * nAlive < nEdges

  /** Independent copy: two array copies, `degree` and `strength` over the
    * used prefix, O(|V| + pairs) with no hashing. The write-once columns
    * (every per-edge array, the pairs' first edges, the external ids and NL,
    * built here first if it does not cover every pair, so that all copies of
    * this TEL share one) are shared with this TEL, which appends only into
    * fresh slots or grown arrays, and the copy never appends; since liveness
    * follows from the timeline's ends and the strengths, the copy needs no
    * per-edge state of its own. The copy starts without the peel stack and
    * dictionaries and builds them when first needed.
    */
  def copy(): TEL = {
    buildNl()
    val t = new TEL(h, 0)
    t.eu = eu; t.ev = ev; t.et = et; t.epair = epair; t.pairEdge = pairEdge
    t.ext = ext; t.nl = nl; t.nlStart = nlStart; t.ownsColumns = false
    t.nEdges = nEdges; t.nAlive = nAlive; t.head = head; t.tail = tail
    t.degree = copyOf(degree, nVerts); t.nVerts = nVerts; t.nLive = nLive
    t.strength = copyOf(strength, nPairs); t.nPairs = nPairs; t.weak = weak; t.clock = clock
    t
  }

  /** Bytes held by this TEL's arrays, dictionaries and peel stack (Table 5),
    * counted from their allocated lengths with a 16-byte header per array.
    * Pointers in the paper's TEL correspond to the Int slots of NL here.
    * Write-once columns shared between copies count only in the instance
    * that allocated them, so a `copy()` counts none, NL included: its source
    * built the NL it shares, and it never gains a pair.
    */
  def memoryFootprintBytes: Long = {
    def ints(as: Array[Int]*): Long = as.filter(_ != null).map(a => arrayBytes(a.length, 4)).sum
    val owned = if (ownsColumns) arrayBytes(ext.length, 8) +
      ints(eu, ev, et, epair, pairEdge, nl, nlStart) else 0L
    owned + ints(degree, strength, below) +
      Option(vertexIds).fold(0L)(_.bytes) + Option(pairIds).fold(0L)(_.bytes)
  }
}

object TEL {

  /** Builds a TEL from a collection of temporal edges (sorted internally by
    * timestamp — the construction the paper describes: iterative appends).
    * Self-loops are rejected.
    */
  def fromEdges(edges: IterableOnce[TemporalEdge], h: Int = 1): TEL = {
    val sorted = edges.iterator.toArray.sortBy(_.t)
    val tel = new TEL(h, sorted.length)
    var i = 0
    while (i < sorted.length) {
      val e = sorted(i)
      tel.addEdge(e.u, e.v, e.t)
      i += 1
    }
    tel
  }

  /** An empty, dynamically growable TEL (dynamic-graph extension, §6.1). */
  def empty(h: Int = 1): TEL = new TEL(h, 16)

  private def pairKey(a: Int, b: Int): Long = TemporalEdge.pairKey(a.toLong, b.toLong)

  /** Heap bytes of a primitive array: 16-byte header plus payload. */
  private[core] def arrayBytes(length: Int, elemBytes: Int): Long = 16L + length.toLong * elemBytes
}
