package core

import (
	"sync"
	"sync/atomic"

	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file implements the pooled per-query workspace that makes the
// warm-cache query path allocation-free. A single PointsTo previously
// allocated a driver visited-map, a driver worklist, a budget, and — per
// Summarize call, even on cache hits — a converted frontier slice; across
// the thousands of queries of a batch (paper Figure 4) that allocation
// traffic dominated the cheap traversals DYNSUM is built around. A
// Scratch owns all of that state, keyed by dense integer encodings of the
// ⟨node, field-stack, state⟩ and ⟨node, field-stack, state, context⟩
// tuples, and is recycled through a sync.Pool shared by all engines and
// all BatchPointsTo workers, so a query whose state space fits inside a
// previous high-water mark performs zero heap allocations.
//
// The visited sets are open-addressing probe tables with generation
// stamps rather than Go maps: starting a new query (or PPTA run) is a
// counter increment instead of an O(capacity) map clear, lookups are a
// multiplicative hash plus a linear probe with no hash-function call
// overhead, and a slot whose key recurs across queries (the common case —
// batches revisit the same states) is re-armed in place, so the tables
// stabilise at the working-set size.

// visitSet is a generation-stamped open-addressing set of uint64 keys
// (key 0 is reserved; callers encode so 0 never occurs... encodings here
// add 1 to avoid it). Not safe for concurrent use.
type visitSet struct {
	keys []uint64 // stored as key+1; 0 = empty slot
	gens []uint32
	used int // slots holding any (possibly stale) key
	gen  uint32
}

// grow (re)allocates the table. Sizes are powers of two.
func (v *visitSet) grow(n int) {
	v.keys = make([]uint64, n)
	v.gens = make([]uint32, n)
	v.used = 0
	v.gen = 1
}

// reset starts a new generation, invalidating every entry in O(1). When
// stale entries have filled most slots the table is rebuilt, keeping its
// size: recurring keys re-arm their old slots, so growth only happens
// through genuinely new keys.
func (v *visitSet) reset() {
	if v.keys == nil {
		v.grow(256)
		return
	}
	v.gen++
	if v.gen == 0 || v.used > len(v.keys)*3/4 {
		v.grow(len(v.keys))
	}
}

func mix64(k uint64) uint64 {
	k *= 0x9E3779B97F4A7C15
	return k ^ (k >> 29)
}

// visit marks k visited in the current generation, reporting whether it
// was new to this generation.
func (v *visitSet) visit(k uint64) bool {
	k++
	mask := uint64(len(v.keys) - 1)
	i := mix64(k) & mask
	for {
		switch v.keys[i] {
		case 0:
			if v.used >= len(v.keys)*3/4 {
				v.rehash()
				return v.visit(k - 1)
			}
			v.keys[i] = k
			v.gens[i] = v.gen
			v.used++
			return true
		case k:
			if v.gens[i] == v.gen {
				return false
			}
			v.gens[i] = v.gen
			return true
		}
		i = (i + 1) & mask
	}
}

// rehash doubles the table, keeping only current-generation entries.
func (v *visitSet) rehash() {
	keys, gens, gen := v.keys, v.gens, v.gen
	v.grow(2 * len(keys))
	v.gen = gen
	for i, k := range keys {
		if k != 0 && gens[i] == gen {
			mask := uint64(len(v.keys) - 1)
			j := mix64(k) & mask
			for v.keys[j] != 0 {
				j = (j + 1) & mask
			}
			v.keys[j] = k
			v.gens[j] = gen
			v.used++
		}
	}
}

// visitMap is a visitSet that carries an int32 value per key: the memoised
// PPTA uses it to map dense state encodings to state-record indices.
// Insert-only within a generation (a state's index never changes); reset
// invalidates every entry in O(1).
type visitMap struct {
	keys []uint64 // stored as key+1; 0 = empty slot
	vals []int32
	gens []uint32
	used int
	gen  uint32
}

func (v *visitMap) grow(n int) {
	v.keys = make([]uint64, n)
	v.vals = make([]int32, n)
	v.gens = make([]uint32, n)
	v.used = 0
	v.gen = 1
}

func (v *visitMap) reset() {
	if v.keys == nil {
		v.grow(256)
		return
	}
	v.gen++
	if v.gen == 0 || v.used > len(v.keys)*3/4 {
		v.grow(len(v.keys))
	}
}

// get returns the value recorded for k in the current generation.
func (v *visitMap) get(k uint64) (int32, bool) {
	k++
	mask := uint64(len(v.keys) - 1)
	i := mix64(k) & mask
	for {
		switch v.keys[i] {
		case 0:
			return 0, false
		case k:
			if v.gens[i] == v.gen {
				return v.vals[i], true
			}
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// put records k → val; k must not be present in the current generation.
func (v *visitMap) put(k uint64, val int32) {
	k++
	mask := uint64(len(v.keys) - 1)
	i := mix64(k) & mask
	for {
		switch v.keys[i] {
		case 0:
			if v.used >= len(v.keys)*3/4 {
				v.rehash()
				v.put(k-1, val)
				return
			}
			v.keys[i] = k
			v.vals[i] = val
			v.gens[i] = v.gen
			v.used++
			return
		case k:
			// Stale slot from an earlier generation: re-arm in place.
			v.vals[i] = val
			v.gens[i] = v.gen
			return
		}
		i = (i + 1) & mask
	}
}

func (v *visitMap) rehash() {
	keys, vals, gens, gen := v.keys, v.vals, v.gens, v.gen
	v.grow(2 * len(keys))
	v.gen = gen
	for i, k := range keys {
		if k != 0 && gens[i] == gen {
			mask := uint64(len(v.keys) - 1)
			j := mix64(k) & mask
			for v.keys[j] != 0 {
				j = (j + 1) & mask
			}
			v.keys[j] = k
			v.vals[j] = vals[i]
			v.gens[j] = gen
			v.used++
		}
	}
}

// visitSet2 is a visitSet over 128-bit keys (the driver tuple needs node,
// field stack, context and direction — 94 bits).
type visitSet2 struct {
	lo, hi []uint64 // lo stored as lo+1; 0 = empty slot
	gens   []uint32
	used   int
	gen    uint32
}

func (v *visitSet2) grow(n int) {
	v.lo = make([]uint64, n)
	v.hi = make([]uint64, n)
	v.gens = make([]uint32, n)
	v.used = 0
	v.gen = 1
}

func (v *visitSet2) reset() {
	if v.lo == nil {
		v.grow(256)
		return
	}
	v.gen++
	if v.gen == 0 || v.used > len(v.lo)*3/4 {
		v.grow(len(v.lo))
	}
}

func (v *visitSet2) visit(lo, hi uint64) bool {
	lo++
	mask := uint64(len(v.lo) - 1)
	i := (mix64(lo) ^ mix64(hi)) & mask
	for {
		if v.lo[i] == 0 {
			if v.used >= len(v.lo)*3/4 {
				v.rehash()
				return v.visit(lo-1, hi)
			}
			v.lo[i], v.hi[i] = lo, hi
			v.gens[i] = v.gen
			v.used++
			return true
		}
		if v.lo[i] == lo && v.hi[i] == hi {
			if v.gens[i] == v.gen {
				return false
			}
			v.gens[i] = v.gen
			return true
		}
		i = (i + 1) & mask
	}
}

func (v *visitSet2) rehash() {
	lo, hi, gens, gen := v.lo, v.hi, v.gens, v.gen
	v.grow(2 * len(lo))
	v.gen = gen
	for i, k := range lo {
		if k != 0 && gens[i] == gen {
			mask := uint64(len(v.lo) - 1)
			j := (mix64(k) ^ mix64(hi[i])) & mask
			for v.lo[j] != 0 {
				j = (j + 1) & mask
			}
			v.lo[j], v.hi[j] = k, hi[i]
			v.gens[j] = gen
			v.used++
		}
	}
}

// Scratch is the reusable workspace of one in-flight query. It is not
// safe for concurrent use; acquire one per query via the internal pool
// (RunDriver and DynSum.Query do this automatically).
type Scratch struct {
	// bud is the query budget, embedded so budget setup allocates nothing.
	bud Budget

	// view is the querying engine's adjacency, set once by the driver so
	// Summarize implementations read it with a field load.
	view *pag.View

	// Batched work counters, flushed into the engine's Metrics once per
	// query instead of one atomic add per traversed edge.
	tuples, ppta, edges int64

	// Driver state (Algorithm 4 worklist).
	seen  visitSet2
	dwork []driverTuple

	// PPTA state (Algorithm 3 closure), flat path (cache disabled).
	pvisited visitSet
	pwork    []pptaState

	// Result-accumulation buffers: the flat PPTA gathers objects and
	// frontier states here, then copies them once into exactly-sized
	// immutable slices for the summary cache.
	objBuf []pag.NodeID
	frBuf  []FrontierState

	// Memoised-PPTA state (cache enabled): the Tarjan-style DFS over the
	// PPTA state graph. mseen maps dense state encodings to indices in
	// mstates; msucc and mOwnObj are arenas holding every state's successor
	// tuples and own-emitted objects as (offset, length) ranges; mframes is
	// the DFS stack, mtstack the Tarjan component stack. Completed SCC
	// results live as ranges into the mResObj/mResFr arenas, described by
	// mres records. Ranges stay valid across arena growth because access
	// always re-slices the current arena.
	mseen   visitMap
	mstates []memoState
	msucc   []pptaState
	mOwnObj []pag.NodeID
	mframes []memoFrame
	mtstack []int32
	mres    []memoResult
	mResObj []pag.NodeID
	mResFr  []FrontierState

	// Per-SCC union dedup sets, generation-reset at each SCC completion.
	mObjSeen visitSet // object node IDs
	mFrSeen  visitSet // frontier-state encodings
	mResSeen visitSet // child result indices

	// Pending write-backs of the current PPTA run: pendKeys[i] is a state
	// to cache, pendRIdx[i] the index of its SCC's result record (runs of
	// equal indices are one SCC's members). Nothing is materialised until
	// the whole traversal succeeds — commitWriteBacks then copies each
	// distinct result once into block-allocated immutable slices and
	// batch-inserts, filling the parallel pendMeth/pendRes arrays on the
	// way; a budget or depth abort just truncates the queue (partial
	// closures must never be cached).
	pendKeys []pptaState
	pendRIdx []int32
	pendMeth []pag.MethodID
	pendRes  []*pptaResult

	// Batched memoisation counters, flushed with the other work counters.
	spliced, written int64

	// idBuf backs the single-state frontier of identity summaries (nodes
	// without local edges), avoiding one allocation per such Summarize.
	idBuf [1]FrontierState

	// completed is the quarantine health flag: the query entry sets it
	// only after the traversal returned normally (success or a clean
	// error abort both count — the scratch's invariants hold either way).
	// quarantineRelease pools the scratch only when it is set; a panic
	// unwinds past the set, leaving it false, and the poisoned scratch is
	// abandoned to the GC instead of re-entering the pool. The lint pass
	// `scratchreturn` enforces that every putScratch call is dominated by
	// this check.
	completed bool
}

// dkeys is the dense encoding of a driverTuple: node and field stack in
// one word, context and direction state in the other. NodeIDs and stack
// IDs are non-negative int32s, so each fits in 31 bits and the packing is
// collision-free.
func dkeys(t driverTuple) (lo, hi uint64) {
	return uint64(uint32(t.node))<<32 | uint64(uint32(t.fs)),
		uint64(uint32(t.ctx))<<1 | uint64(t.st)
}

// pkey is the dense encoding of a pptaState: node<<32 | fs<<1 | st.
//
// The wildcard stack ⊤ (intstack.Wild = -1) is remapped to 0x7FFFFFFF so
// the shifted stack half stays within 32 bits. Packed raw, ⊤'s 0xFFFFFFFF
// would bleed its top bit into the node half and pkey(n, ⊤, st) would
// equal pkey(n+1, ⊤, st) for every even n — adjacent-node wildcard states
// (exactly what a blended-summary continuation walks through) would alias
// in the visited set and silently prune the traversal. 0x7FFFFFFF itself
// cannot collide: a concrete stack with that ID would need an intstack
// table of 2^31 entries.
func pkey(s pptaState) uint64 {
	return uint64(uint32(s.node))<<32 | fsKeyBits(s.fs)<<1 | uint64(s.st)
}

// fsKeyBits encodes a field-stack ID for key packing: non-negative IDs
// verbatim, ⊤ as the impossible table ID 0x7FFFFFFF.
func fsKeyBits(fs intstack.ID) uint64 {
	if fs == intstack.Wild {
		return 0x7FFFFFFF
	}
	return uint64(uint32(fs))
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// putScratch returns sc to the pool after trimming buffers that outgrew
// what queries on a graph of nodes nodes plausibly need. Without the trim
// one pathological query (a budget-busting traversal of a huge graph)
// would pin its high-water-mark buffers for the lifetime of the pool —
// sync.Pool only drops entries under GC pressure, and a busy engine keeps
// the entry hot forever.
func putScratch(sc *Scratch, nodes int) {
	// Drop the graph view: a pooled Scratch must not pin the queried
	// graph (and its condensed overlay) until GC happens to evict the
	// pool entry. (Result pointers the memoised PPTA parks in mres and
	// pendRes are zeroed at the end of each traversal/commit — doing it
	// here would memset large pooled buffers on every warm query.)
	// The budget is zeroed for the same reason: an armed budget holds the
	// query's context.
	sc.view = nil
	sc.bud = Budget{}
	sc.trim(retainLimit(nodes))
	scratchPool.Put(sc)
}

// quarantineRelease is the query path's single pool-return point,
// deferred by every entry that borrows a Scratch (DynSum.query,
// RunDriver) around the traversal. On normal return — the entry marked
// sc.completed after the traversal came back, error aborts included —
// it recycles the scratch. On panic it recovers, reports the query as
// failed with a typed *QueryPanicError through err, and abandons the
// scratch: a traversal interrupted at an arbitrary instruction leaves
// visit tables, arenas and the pending write-back queue in unknown
// states, and pooling it would hand that corruption to an unrelated
// future query. The buffered write-backs die with it — nothing was
// materialised, so the summary cache stays byte-identical (the same
// guarantee error aborts established in discardPending, extended to
// panics).
func quarantineRelease(sc *Scratch, m *Metrics, nodes int, v pag.NodeID, cc intstack.ID, err *error) {
	if r := recover(); r != nil {
		atomic.AddInt64(&m.Failed, 1)
		*err = newQueryPanicError(v, cc, r)
		return
	}
	if sc.completed {
		sc.completed = false
		putScratch(sc, nodes)
	}
}

// retainLimit is the largest per-buffer capacity worth keeping pooled for
// a graph of n nodes: a few states per node covers the realistic working
// set (states are ⟨node, stack, direction⟩ tuples and stacks are shallow
// on warm paths), clamped so tiny fixtures still keep the 256-slot floor
// and giant graphs cannot demand unbounded retention.
func retainLimit(n int) int {
	const (
		floor = 1 << 10
		ceil  = 1 << 20
	)
	lim := 4*n + floor
	if lim > ceil {
		lim = ceil
	}
	return lim
}

// trim drops any buffer whose capacity exceeds limit; the next query
// regrows from the defaults. Under-limit buffers are kept, so the
// steady-state warm path stays allocation-free.
func (sc *Scratch) trim(limit int) {
	if len(sc.seen.lo) > limit {
		sc.seen = visitSet2{}
	}
	if len(sc.pvisited.keys) > limit {
		sc.pvisited = visitSet{}
	}
	if cap(sc.dwork) > limit {
		sc.dwork = nil
	}
	if cap(sc.pwork) > limit {
		sc.pwork = nil
	}
	if cap(sc.objBuf) > limit {
		sc.objBuf = nil
	}
	if cap(sc.frBuf) > limit {
		sc.frBuf = nil
	}
	if len(sc.mseen.keys) > limit {
		sc.mseen = visitMap{}
	}
	if cap(sc.mstates) > limit {
		sc.mstates = nil
	}
	if cap(sc.msucc) > limit {
		sc.msucc = nil
	}
	if cap(sc.mOwnObj) > limit {
		sc.mOwnObj = nil
	}
	if cap(sc.mframes) > limit {
		sc.mframes = nil
	}
	if cap(sc.mtstack) > limit {
		sc.mtstack = nil
	}
	if cap(sc.mres) > limit {
		sc.mres = nil
	}
	if cap(sc.mResObj) > limit {
		sc.mResObj = nil
	}
	if cap(sc.mResFr) > limit {
		sc.mResFr = nil
	}
	if len(sc.mObjSeen.keys) > limit {
		sc.mObjSeen = visitSet{}
	}
	if len(sc.mFrSeen.keys) > limit {
		sc.mFrSeen = visitSet{}
	}
	if len(sc.mResSeen.keys) > limit {
		sc.mResSeen = visitSet{}
	}
	if cap(sc.pendKeys) > limit {
		sc.pendKeys = nil
	}
	if cap(sc.pendRIdx) > limit {
		sc.pendRIdx = nil
	}
	if cap(sc.pendMeth) > limit {
		sc.pendMeth = nil
	}
	if cap(sc.pendRes) > limit {
		sc.pendRes = nil
	}
}

// resetDriver prepares the driver tables for a new query. Slice
// truncation keeps the backing array, so a warm re-run touches no
// allocator.
func (sc *Scratch) resetDriver() {
	sc.seen.reset()
	sc.dwork = sc.dwork[:0]
}

// resetPPTA prepares the flat-PPTA tables for one summary computation.
func (sc *Scratch) resetPPTA() {
	sc.pvisited.reset()
	sc.pwork = sc.pwork[:0]
	sc.objBuf = sc.objBuf[:0]
	sc.frBuf = sc.frBuf[:0]
}

// resetMemo prepares the memoised-PPTA tables for one traversal. The
// per-SCC dedup sets are reset at each SCC completion instead.
func (sc *Scratch) resetMemo() {
	sc.mseen.reset()
	sc.mstates = sc.mstates[:0]
	sc.msucc = sc.msucc[:0]
	sc.mOwnObj = sc.mOwnObj[:0]
	sc.mframes = sc.mframes[:0]
	sc.mtstack = sc.mtstack[:0]
	sc.mres = sc.mres[:0]
	sc.mResObj = sc.mResObj[:0]
	sc.mResFr = sc.mResFr[:0]
	sc.pendKeys = sc.pendKeys[:0]
	sc.pendRIdx = sc.pendRIdx[:0]
	sc.pendMeth = sc.pendMeth[:0]
	sc.pendRes = sc.pendRes[:0]
}

// flushMetrics adds the batched per-query counters into m in three atomic
// operations (instead of one per traversed edge) and zeroes them.
func (sc *Scratch) flushMetrics(m *Metrics) {
	if sc.tuples != 0 {
		atomic.AddInt64(&m.TuplesVisited, sc.tuples)
		sc.tuples = 0
	}
	if sc.ppta != 0 {
		atomic.AddInt64(&m.PPTAVisits, sc.ppta)
		sc.ppta = 0
	}
	if sc.edges != 0 {
		atomic.AddInt64(&m.EdgesTraversed, sc.edges)
		sc.edges = 0
	}
	if sc.spliced != 0 {
		atomic.AddInt64(&m.SplicedSummaries, sc.spliced)
		sc.spliced = 0
	}
	if sc.written != 0 {
		atomic.AddInt64(&m.WrittenBackSummaries, sc.written)
		sc.written = 0
	}
}

// propagate pushes tp unless it was already seen (Algorithm 4's worklist
// discipline), as a method so the driver loop needs no heap-allocated
// closure.
func (sc *Scratch) propagate(tp driverTuple) {
	if sc.seen.visit(dkeys(tp)) {
		sc.dwork = append(sc.dwork, tp)
	}
}

// pushPPTA pushes s unless already visited during this PPTA run.
func (sc *Scratch) pushPPTA(s pptaState) {
	if sc.pvisited.visit(pkey(s)) {
		sc.pwork = append(sc.pwork, s)
	}
}

// Identity returns the single-state frontier of the identity summary for
// a node without local edges (paper §4.3). The returned slice aliases the
// scratch and is valid only until the next Identity call on the same
// Scratch — the driver consumes each Summary before requesting the next,
// which is exactly that lifetime.
//
//lint:allow scratchpin deliberate zero-alloc view; lifetime documented above
func (sc *Scratch) Identity(n pag.NodeID, fs intstack.ID, st State) []FrontierState {
	sc.idBuf[0] = FrontierState{Node: n, Fs: fs, St: st}
	return sc.idBuf[:1]
}
