package repro.core

import java.util.Arrays.copyOf

/** Temporal Edge List (paper §5.1) — the in-memory representation of a
  * temporal graph on which TCD operations execute.
  *
  * All state lives in plain arrays indexed by dense, instance-local `Int`
  * ids: edges, vertices and vertex pairs are numbered in order of
  * appearance, and `ext` maps local vertices back to their external `Long`
  * ids for output. Edge ids ascend with timestamps: `addEdge` and
  * `copyRange` append in time order, and `copy()` keeps ids.
  *
  * '''Two phases.''' A TEL appends until its first `truncate`, `decompose`,
  * `copy()` or `snapshot()`. That call seals it, once: at `h > 1` it deletes
  * every pair with fewer than `h` edges (the §6.2 purge), and then it builds
  * NL. A sealed TEL only deletes. A copy shares its source's NL, so it is
  * sealed from the start. `copyRange` only reads its source and does not
  * seal it, so a master keeps appending between queries that work on copies
  * of it (§5.2, §6.1).
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
  * its death stamp (below), a negative number, which kills its remaining
  * slots at once, and the ends then move inward past the dead slots they meet.
  *
  * '''NL(v)''', in place of the paper's SL(v) / DL(v), lists every pair of
  * `v`, alive or dead: it is `nl(nlStart(v) until nlStart(v + 1))`, a
  * counting sort of the pairs by their endpoints `pu` and `pv`. A pair
  * counts iff its strength is positive, and `degree(v)` is a counter of
  * `v`'s pairs that do: its ''distinct neighbours'' (the paper's degree). A
  * pair's first alive edge adds 1 at both endpoints, and deleting the pair
  * takes it off. The seal builds NL over every pair; a sealed TEL gains no
  * pair, so NL is never written afterwards, and copies share it. Masters,
  * which only append and `copyRange`, hold none.
  *
  * The graph is undirected, so an edge is its pair and its timestamp: the
  * edge columns are `epair` and `et`, and a pair stores its endpoints once.
  * All are written once, so `del_edge` and with it `truncate` and
  * `decompose` touch arrays only. A deleted edge keeps its slot.
  * Decomposition peels with a fixed `k` instead of the paper's H_v min-heap:
  * a stack holds the vertices whose degree fell below the `k` of the last
  * `decompose`, and a degree change costs O(1); peeling `v` deletes the
  * pairs on NL(v) that still have strength. The stack is allocated at the
  * first `decompose`, so masters, which never peel, carry none.
  *
  * '''Snapshots''' are O(1) because every pair death is stamped: the pair's
  * strength becomes `nAlive - nEdges`, minus the number of edges deleted so
  * far, its own included. Every pair death deletes at least one edge, so
  * each stamp lies below all earlier ones. A handle keeps `head`, `tail` and
  * `at = nEdges - nAlive`, and holds this TEL's `strength` array and
  * write-once columns by reference. On first read it keeps the slots `e` of
  * its range with `s > 0 || -s > at`, where `s = strength(epair(e))`: the
  * pairs alive now, or dead since the snapshot. A snapshot seals its TEL, so
  * later calls on it or its copies only stamp newer deaths or lower
  * surviving strengths, and these are exactly the edges alive at the
  * snapshot.
  *
  * The §6.2 purge defers no work after the seal: truncation deletes a whole
  * pair once its strength would fall below `h`, and a peel deletes whole
  * pairs, so no sealed TEL holds a pair with fewer than `h` edges. At
  * `h = 1` neither happens apart from a pair losing its last edge.
  *
  * Copies cost no hashing. `copy()` copies two arrays, `degree` and
  * `strength`, O(|V| + pairs), and carries the edge counters that the death
  * stamps are read from; the write-once columns, every per-edge array and NL
  * among them, are shared with the source, which is sealed and so never
  * writes them again. `copyRange(ts, te)` finds the window's edge slots by
  * binary search on the timestamps and compacts its alive edges, their
  * vertices and pairs into fresh ids through array remaps, so the result is
  * sized by the window, not by the source. Over the whole timeline it
  * rebuilds a TEL compactly: a TCQ row source, kept peeled, is replaced by
  * such a rebuild once fewer than half of its edge slots are alive, so every
  * row copies a mostly-alive prefix.
  *
  * '''Id tables.''' The only hash lookups are those of `addEdge`, `degreeOf`
  * and `strengthOf`, through two open-addressing tables that hold local ids
  * only: `vertexIds`, keyed through `ext`, and `pairIds`, keyed through
  * `pu` and `pv` in either order, so no key is stored twice. Ids are dense,
  * so one function builds a table from the ids `0 until n`: when a new id
  * would leave a table more than half full, and on the first lookup in a
  * TEL that has none (a new TEL, a `copy()` or a `copyRange` result).
  *
  * Instances are single-threaded and mutable. `addEdge` implements the
  * dynamic-graph extension (§6.1): timestamps may only append at or after the
  * last appended one, and only to an unsealed TEL. As in the paper, only the
  * master grows, and every query works on a copy of it (§5.2).
  *
  * @param h link-strength lower bound (§6.2); 1 = plain TCQ semantics
  */
final class TEL private (val h: Int, edgeCapacity: Int) {
  import TEL.{arrayBytes, pairKey}
  require(h >= 1, s"link strength h must be >= 1, got $h")

  // ---- edges: local ids [0, nEdges) in timestamp order, all write-once;
  // alive iff in [head, tail] with a pair of positive strength ----
  private var et, epair: Array[Int] = new Array[Int](edgeCapacity)
  private var nEdges = 0
  private var nAlive = 0
  private var head = 0 // first and last alive edge: the ends of the timeline
  private var tail = -1

  // ---- vertices: local ids [0, nVerts), external id in `ext` ----
  private var ext: Array[Long] = new Array[Long](16)
  private var degree: Array[Int] = new Array[Int](16) // pairs of v with strength > 0
  private var nVerts = 0
  private var nLive = 0 // vertices with degree > 0

  // ---- vertex pairs: strength = alive parallel edges, or the death stamp
  // once deleted; endpoints pu, pv, write-once ----
  private var pu, pv, strength: Array[Int] = new Array[Int](16)
  private var nPairs = 0

  // ---- NL(v) = nl(nlStart(v) until nlStart(v + 1)): every pair of v, alive
  // or dead; write-once, null until the seal builds it ----
  private var nl, nlStart: Array[Int] = null

  private var peelK = 0                     // k of the last decompose; 0 = none yet
  private var below: Array[Int] = null      // stack of vertices below peelK
  private var nBelow = 0
  // ---- id tables: local vertices keyed by ext, pairs by (pu, pv); -1 =
  // empty; null until the first addEdge, degreeOf or strengthOf ----
  private var vertexIds, pairIds: Array[Int] = null
  // False for a TEL made by copy(): it shares the write-once columns (et,
  // epair, pu, pv, ext, nl, nlStart) with its source, and never appends.
  private var ownsColumns = true

  // ---------------------------------------------------------------- queries

  def numAliveEdges: Int = nAlive
  def numVertices: Int = nLive
  def isEmpty: Boolean = nAlive == 0
  def vertices: Iterator[Long] = Iterator.range(0, nVerts).filter(degree(_) > 0).map(ext(_))

  def degreeOf(v: Long): Int = {
    idTables()
    val x = vertexIds(findVertex(v))
    if (x < 0) 0 else degree(x)
  }

  def strengthOf(u: Long, v: Long): Int = {
    idTables()
    val a = vertexIds(findVertex(u))
    val b = vertexIds(findVertex(v))
    val p = if (a < 0 || b < 0) -1 else pairIds(findPair(a, b))
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

  /** Seals this TEL and snapshots the current graph as a [[CoreResult]]
    * handle (None when empty), in O(1): the sizes are the counters, and the
    * handle keeps the timeline's ends and the number of edges deleted so far
    * over this TEL's `strength` array and write-once columns. It builds its
    * edges on first read, from the pairs alive now or stamped dead since (see
    * the class doc), so later `truncate` or `decompose` calls on this TEL or
    * its copies do not change them.
    */
  def snapshot(): Option[CoreResult] = {
    seal()
    tti.map(i => CoreResult.deferred(i, nLive, nAlive)(aliveEdges()))
  }

  /** Builds, when called, the edges alive now: one scan of the slots in
    * `[head, tail]` that keeps those whose pair has strength or was stamped
    * dead after the current count of deleted edges. It holds the arrays, not
    * this TEL, and `snapshot` takes it only from a sealed TEL, whose later
    * deletions only stamp newer deaths or lower surviving strengths and
    * which writes no other array again.
    */
  private def aliveEdges(): () => Vector[TemporalEdge] = {
    val from = head; val to = tail; val at = nEdges - nAlive; val n = nAlive
    val t = et; val pe = epair; val u = pu; val v = pv; val x = ext; val s = strength
    () => {
      val b = Vector.newBuilder[TemporalEdge]
      b.sizeHint(n)
      var e = from
      while (e <= to) {
        val p = pe(e)
        val c = s(p)
        if (c > 0 || -c > at) b += TemporalEdge(x(u(p)), x(v(p)), t(e))
        e += 1
      }
      b.result()
    }
  }

  // ------------------------------------------------------------ construction

  private def growEdges(): Unit = {
    val cap = math.max(16, et.length * 2)
    et = copyOf(et, cap); epair = copyOf(epair, cap)
  }

  /** The local vertex of external id `id`; a fresh one if there is none. */
  private def vertexSlot(id: Long): Int = {
    val i = findVertex(id)
    if (vertexIds(i) >= 0) vertexIds(i) else {
      val x = newVertex(id)
      if (2 * nVerts > vertexIds.length) vertexIds = idTable(nVerts, ext(_)) else vertexIds(i) = x
      x
    }
  }

  /** The pair slot of local vertices `a` and `b`; a fresh one if there is none. */
  private def pairSlot(a: Int, b: Int): Int = {
    val i = findPair(a, b)
    if (pairIds(i) >= 0) pairIds(i) else {
      val p = newPair(a, b)
      if (2 * nPairs > pairIds.length) pairIds = idTable(nPairs, pairKeyOf) else pairIds(i) = p
      p
    }
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

  /** Allocates pair slot `nPairs`, of local vertices `a` and `b`, with no
    * alive edges, and returns it.
    */
  private def newPair(a: Int, b: Int): Int = {
    if (nPairs == strength.length) {
      val cap = math.max(16, strength.length * 2)
      pu = copyOf(pu, cap); pv = copyOf(pv, cap); strength = copyOf(strength, cap)
    }
    val p = nPairs
    nPairs += 1
    pu(p) = a; pv(p) = b; strength(p) = 0
    p
  }

  /** Seals this TEL on its first `truncate`, `decompose`, `copy()` or
    * `snapshot()`: at `h > 1` deletes every pair with fewer than `h` edges
    * (the modified TCD of §6.2), then builds NL, a counting sort of the
    * pairs by both endpoints. No sealed TEL appends, so NL then covers every
    * pair for good.
    */
  private def seal(): Unit = if (nl == null) {
    if (h > 1) for (p <- 0 until nPairs if strength(p) < h) deletePair(p)
    val start = new Array[Int](nVerts + 1) // sizes of the NL(x), then their ends, then starts
    for (p <- 0 until nPairs) { start(pu(p)) += 1; start(pv(p)) += 1 }
    for (x <- 1 to nVerts) start(x) += start(x - 1)
    val list = new Array[Int](2 * nPairs)
    def put(x: Int, p: Int): Unit = { start(x) -= 1; list(start(x)) = p }
    for (p <- nPairs - 1 to 0 by -1) { put(pu(p), p); put(pv(p), p) }
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

  /** Builds both id tables if this TEL has none yet: it is new, or a
    * `copy()` or `copyRange` result.
    */
  private def idTables(): Unit = if (vertexIds == null) {
    vertexIds = idTable(nVerts, ext(_))
    pairIds = idTable(nPairs, pairKeyOf)
  }

  /** An id table of the ids `0 until n`, keyed by `keyOf`: a power of two
    * of at least `max(8, 2n)` slots, so at most half full, with -1 in the
    * empty ones.
    */
  private def idTable(n: Int, keyOf: Int => Long): Array[Int] = {
    val table = new Array[Int](Integer.highestOneBit(math.max(8, 2 * n) - 1) << 1)
    java.util.Arrays.fill(table, -1)
    for (x <- 0 until n) {
      var i = home(keyOf(x), table.length)
      while (table(i) >= 0) i = (i + 1) & (table.length - 1)
      table(i) = x
    }
    table
  }

  /** The first slot to probe for `key` in an id table of `size` slots, a
    * power of two: Fibonacci hashing onto the top bits of the product.
    */
  private def home(key: Long, size: Int): Int =
    ((key * 0x9E3779B97F4A7C15L) >>> (64 - Integer.numberOfTrailingZeros(size))).toInt

  /** The slot of `vertexIds` that holds the vertex with external id `id`, or
    * else the empty slot where linear probing for it stops.
    */
  private def findVertex(id: Long): Int = {
    var i = home(id, vertexIds.length)
    while (vertexIds(i) >= 0 && ext(vertexIds(i)) != id) i = (i + 1) & (vertexIds.length - 1)
    i
  }

  /** The slot of `pairIds` that holds the pair of local vertices `a` and `b`,
    * in either order, or else the empty slot where linear probing stops.
    */
  private def findPair(a: Int, b: Int): Int = {
    val key = pairKey(a, b)
    var i = home(key, pairIds.length)
    while (pairIds(i) >= 0 && pairKeyOf(pairIds(i)) != key) i = (i + 1) & (pairIds.length - 1)
    i
  }

  /** The key of pair `p`: `pairKey` of its endpoints, the same in both orders. */
  private def pairKeyOf(p: Int): Long = pairKey(pu(p), pv(p))

  /** Appends an edge of pair `p` at time `t` as the new tail of the
    * timeline, plus the strength update; a pair's first alive edge also adds
    * a neighbour to both its endpoints. The caller keeps `t` no earlier than
    * the last appended edge's, on an unsealed TEL, which has deleted nothing,
    * so no strength is negative.
    */
  private def append(p: Int, t: Int): Unit = {
    if (nEdges == et.length) growEdges()
    val e = nEdges
    nEdges += 1
    nAlive += 1
    et(e) = t; epair(e) = p
    tail = e // an empty TEL already has head = e
    val c = strength(p) + 1
    strength(p) = c
    if (c == 1) { gainNeighbour(pu(p)); gainNeighbour(pv(p)) }
  }

  /** `add_edge(u, v, t)` (§6.1): dynamic append. Requires `u != v`,
    * non-negative ids, since external vertex ids are the non-negative
    * `Long`s (DESIGN.md §1), and `t` no earlier than the last appended
    * edge's timestamp, so edge ids stay in timestamp order. Also requires an unsealed TEL: only the master grows,
    * and queries work on copies of it (§5.2). So no array that a copy or a
    * snapshot handle shares is ever written again.
    */
  def addEdge(u: Long, v: Long, t: Int): Unit = {
    require(u != v, s"self-loop ($u,$v,$t) not allowed")
    require(u >= 0 && v >= 0, s"vertex ids must be non-negative Longs, got ($u,$v)")
    require(nEdges == 0 || t >= et(nEdges - 1),
      s"timestamps must be appended in order: $t < ${et(nEdges - 1)}")
    require(nl == null, "addEdge needs an unsealed TEL: one that no truncate, decompose, " +
      "copy() or snapshot() has touched, and that was not made by copy()")
    idTables()
    val a = vertexSlot(u)
    val b = vertexSlot(v)
    append(pairSlot(a, b), t)
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
    * death stamp `nAlive - nEdges`, taken after its edges leave `nAlive`, so
    * none of its slots is alive and the stamp lies below every earlier one.
    * Both its endpoints lose a neighbour. Then both ends of the timeline
    * settle: they move inward past slots whose pair is dead, so each sits on
    * an alive edge again; an empty TEL gets `head = nEdges`,
    * `tail = nEdges - 1`. Only an unsealed TEL appends, and it has deleted
    * nothing, so the ends only move inward once a TEL deletes: all settling
    * of a TEL costs O(slots) in total, and a deletion O(1) plus its share of
    * that.
    */
  private def deletePair(p: Int): Unit = {
    nAlive -= strength(p)
    strength(p) = nAlive - nEdges
    loseNeighbour(pu(p)); loseNeighbour(pv(p))
    if (nAlive == 0) { head = nEdges; tail = nEdges - 1 }
    else {
      while (strength(epair(head)) <= 0) head += 1
      while (strength(epair(tail)) <= 0) tail -= 1
    }
  }

  // --------------------------------------------------------- TCD operation

  /** Truncation phase of TCD (Algorithm 4 lines 1–14): remove every edge
    * with timestamp outside `[ts, te]`, from both ends of the timeline.
    */
  def truncate(ts: Int, te: Int): Unit = {
    seal()
    while (nAlive > 0 && et(head) < ts) delEdge(head)
    while (nAlive > 0 && et(tail) > te) delEdge(tail)
  }

  /** Decomposition phase of TCD (Algorithm 4 lines 15–24): peel vertices
    * with fewer than `k` distinct (strength-qualified) neighbours.
    *
    * Once a `decompose(k)` has run, every live vertex below `k` is on the
    * `below` stack: deleting a pair pushes an endpoint whose degree drops
    * from `k` to `k - 1`. A new `k` needs one scan of the degrees. A sealed
    * TEL does not append, so degrees only fall: each live vertex is pushed
    * at most once per scan, and the stack never outgrows the `nLive` it was
    * allocated at.
    */
  def decompose(k: Int): Unit = {
    seal()
    if (below == null || k != peelK) {
      if (below == null) below = new Array[Int](nLive)
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
    * through two `Int` remaps indexed by this TEL's vertex and pair ids, and
    * the vertices are remapped once per pair. The cost is O(slots in the
    * window) plus one pass over the remaps.
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
      val p = epair(e)
      if (strength(p) > 0) {
        if (pairOf(p) < 0) pairOf(p) = t.newPair(vertex(pu(p)), vertex(pv(p)))
        t.append(pairOf(p), et(e))
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

  /** Seals this TEL and returns an independent copy: two array copies,
    * `degree` and `strength` over the used prefix, O(|V| + pairs) with no
    * hashing. The write-once columns (both per-edge arrays, the pairs'
    * endpoints, the external ids and NL) are shared with this TEL; both are
    * sealed, so neither writes them again. Since liveness follows from the
    * timeline's ends and the strengths, the copy needs no per-edge state of
    * its own. The copy starts without the peel stack and id tables and
    * builds them when first needed.
    */
  def copy(): TEL = {
    seal()
    val t = new TEL(h, 0)
    t.et = et; t.epair = epair; t.pu = pu; t.pv = pv
    t.ext = ext; t.nl = nl; t.nlStart = nlStart; t.ownsColumns = false
    t.nEdges = nEdges; t.nAlive = nAlive; t.head = head; t.tail = tail
    t.degree = copyOf(degree, nVerts); t.nVerts = nVerts; t.nLive = nLive
    t.strength = copyOf(strength, nPairs); t.nPairs = nPairs
    t
  }

  /** Bytes held by this TEL's arrays, id tables and peel stack (Table 5),
    * counted from their allocated lengths with a 16-byte header per array.
    * Pointers in the paper's TEL correspond to the Int slots of NL here.
    * Write-once columns shared between copies count only in the instance
    * that allocated them, so a `copy()` counts none, NL included: its source
    * built the NL it shares.
    */
  def memoryFootprintBytes: Long = {
    def ints(as: Array[Int]*): Long = as.filter(_ != null).map(a => arrayBytes(a.length, 4)).sum
    val owned = if (ownsColumns) arrayBytes(ext.length, 8) +
      ints(et, epair, pu, pv, nl, nlStart) else 0L
    owned + ints(degree, strength, below, vertexIds, pairIds)
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
