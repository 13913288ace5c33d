package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"dynsum/internal/delta"
	"dynsum/internal/faultinject"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// DynSum is the paper's contribution (Algorithm 4): a context-sensitive
// demand-driven points-to engine that factors each query into
// context-independent PPTA summaries over local edges (Algorithm 3, cached
// across contexts and across queries) and a worklist over the
// context-bearing global edges, on which it performs the RRP
// balanced-parentheses matching of paper Figure 3(b).
//
// The summary cache persists for the lifetime of the engine, so a batch of
// queries sharing library code gets progressively cheaper — the effect
// measured in paper Figure 4.
//
// A DynSum engine is safe for concurrent queries: the summary cache is
// sharded (see cache.go), the stack tables intern concurrently, and the
// work counters are updated atomically, so PointsTo/Query may be called
// from many goroutines and BatchPointsTo fans a query batch out across a
// worker pool. The mutating operations (ResetCache, ApplyDelta, Compact,
// EnableOpenWorld, setting Tracer) are not synchronised with in-flight
// queries; quiesce the engine before calling them.
type DynSum struct {
	// metrics must stay the first field: its int64 counters are updated
	// with sync/atomic, which requires 8-byte alignment that 32-bit
	// platforms only guarantee at the start of an allocated struct.
	metrics Metrics

	g   *pag.Graph
	cfg Config

	// ov is the delta overlay over g: epoch 0 until the first ApplyDelta,
	// and a fresh one after every Compact. Building it is O(1), so every
	// engine carries one.
	ov *delta.Overlay
	// view is the engine's adjacency for the current epoch — condensed or
	// base per Config.DisableCondense — and the only thing queries read
	// edges through. The mutators (construction, ApplyDelta, Compact)
	// resolve it; queries read it plainly under the quiescence contract.
	view *pag.View
	// compactions counts how many times the overlay was merged back into
	// a fresh frozen graph (auto-trigger or explicit Compact).
	compactions int

	fields *intstack.Table // field stacks (private)
	ctxs   *intstack.Table // context stacks (shareable across engines)

	cache  *summaryCache
	intern *resultIntern // hash-consing table for cached result slices

	// ow is the open-world model (nil on closed-world engines — the single
	// nil-check is all a closed-world query pays). Installed by
	// EnableOpenWorld and rebuilt by the adjacency mutators; see
	// openworld.go.
	ow *owModel

	// Tracer, when set, receives one event per driver tuple and per PPTA
	// summary computation; the Table 1 reproduction uses it. Events from
	// concurrent queries arrive on the calling goroutines — install a
	// tracer only on serially-driven engines, or make it thread-safe.
	Tracer func(TraceEvent)
}

// TraceEvent describes one step of the driver, mirroring the columns of
// paper Table 1.
type TraceEvent struct {
	Node   pag.NodeID
	Fields []intstack.Sym // field stack, top first (ppta events only)
	State  State
	Ctx    []intstack.Sym // context stack, top first
	Reused bool           // true when the PPTA summary came from the cache
	Kind   string         // "tuple" (driver step) or "ppta" (summary computed)
}

// NewDynSum builds a DYNSUM engine over the frozen graph g. ctxs may be nil
// (a private table is created) or shared with other engines so that their
// points-to sets are directly comparable. Construction is O(1) in the
// graph's size. It panics on a graph still in builder form.
func NewDynSum(g *pag.Graph, cfg Config, ctxs *intstack.Table) *DynSum {
	RequireFrozen("NewDynSum", g)
	ov, err := delta.NewOverlay(g)
	if err != nil {
		panic(err) // unreachable: g is frozen
	}
	if ctxs == nil {
		ctxs = new(intstack.Table)
	}
	d := &DynSum{
		g:      g,
		cfg:    cfg.WithDefaults(),
		ov:     ov,
		fields: new(intstack.Table),
		ctxs:   ctxs,
		cache:  newSummaryCache(),
		intern: newResultIntern(),
	}
	d.resolveView()
	return d
}

// RequireFrozen rejects a builder-form graph at engine construction: the
// engines read adjacency only through the frozen layout. Every engine
// constructor calls it.
func RequireFrozen(engine string, g *pag.Graph) {
	if !g.Frozen() {
		panic(fmt.Sprintf("core: %s needs a frozen graph; call Graph.Freeze (or Builder.Finish) first, and evolve it through ApplyDelta", engine))
	}
}

// resolveView points the engine's adjacency at the overlay's current
// epoch in the engine's fixed mode. Everything downstream — the driver
// expansion, the PPTA traversal and the summary-cache keys — hangs off
// this one choice, so the two modes can never mix.
func (d *DynSum) resolveView() {
	if d.cfg.DisableCondense {
		d.view = d.ov.BaseView()
	} else {
		d.view = d.ov.CondView()
	}
}

// InternStats reports the hash-consing effect on cached summaries: shared
// is the number of result slices that re-used an existing backing array,
// unique the number of distinct arrays retained.
func (d *DynSum) InternStats() (shared, unique int64) { return d.intern.stats() }

// Name implements Analysis.
func (d *DynSum) Name() string { return "DYNSUM" }

// Metrics implements Analysis.
func (d *DynSum) Metrics() *Metrics { return &d.metrics }

// Ctxs returns the engine's context-stack table; points-to sets returned
// by the engine use IDs from this table.
func (d *DynSum) Ctxs() *intstack.Table { return d.ctxs }

// SummaryCount returns the number of PPTA summaries currently cached —
// the quantity Figure 5 compares against STASUM.
func (d *DynSum) SummaryCount() int { return d.cache.size() }

// ResetCache drops all summaries (used by ablations). The hash-consing
// table is kept: re-computed summaries re-share the same canonical arrays.
func (d *DynSum) ResetCache() { d.cache.clear() }

// SummaryCached reports whether the start-state PPTA summary of a
// PointsTo query on v is already in the summary cache — the probe the
// serving layer (internal/serve) uses to classify a request as warm
// (cheap lane) or cold (whale lane) before admitting it. The probe is
// exact for the query's first summary and a heuristic for the whole
// traversal: a warm start state almost always means the query's
// footprint was cached by the traversal that created it (write-backs
// cover every state a completed run visited, DESIGN.md §9). Nodes with
// no local edges need no PPTA at all and count as warm. With
// Config.DisableCache nothing is ever warm.
//
// Like the query entry points, the probe reads the view and the cache;
// callers must order it against mutators exactly as they order queries
// (the serve layer holds its per-session read lock).
func (d *DynSum) SummaryCached(v pag.NodeID) bool {
	if d.cfg.DisableCache {
		return false
	}
	n := d.view.Rep(v)
	if !d.view.HasLocalEdges(n) {
		return true
	}
	_, ok := d.cache.get(pptaState{node: n, fs: intstack.Empty, st: S1})
	return ok
}

// PointsTo implements Analysis: the points-to set of v under the empty
// initial context, in a freshly allocated set.
func (d *DynSum) PointsTo(v pag.NodeID) (*PointsToSet, error) {
	pts := NewPointsToSet()
	err := d.Query(nil, pts, v, intstack.Empty)
	return pts, err
}

// Query is the engine's one query entry: DYNSUM(v, cc) of paper
// Algorithm 4, the points-to set of v in calling context cc (an ID in the
// engine's context table; intstack.Empty for a whole-program query),
// accumulated into dst. dst is emptied (retaining capacity) first; on
// error it holds the sound partial set.
//
// ctx may be nil. Otherwise cancellation or a deadline aborts the
// traversal cooperatively — the budget's per-edge check polls ctx.Done()
// every cancelCheckInterval steps — returning ErrCanceled (which also
// matches the context's own cause under errors.Is). A context that cannot
// be canceled adds no overhead.
//
// A warm-cache query performs zero heap allocations: per-query state
// lives in a pooled Scratch and cached summaries are returned as
// read-only views, which is what lets a batch amortise thousands of
// queries (paper Figure 4) without allocator traffic.
func (d *DynSum) Query(ctx context.Context, dst *PointsToSet, v pag.NodeID, cc intstack.ID) error {
	return d.query(ctx, dst, v, cc, d.cfg.Budget)
}

// query runs one query inside the panic-quarantine boundary:
// quarantineRelease is the only way the borrowed Scratch leaves this
// function, pooled on normal return (sc.completed) and abandoned on
// panic. budget is a parameter (rather than always d.cfg.Budget) so
// RetryPolicy can escalate it per attempt without mutating the engine.
func (d *DynSum) query(ctx context.Context, dst *PointsToSet, v pag.NodeID, cc intstack.ID, budget int) (err error) {
	atomic.AddInt64(&d.metrics.Queries, 1)
	dst.Reset()
	if cerr := ctxDone(ctx); cerr != nil {
		// Already over: answer before borrowing a scratch. This is what
		// lets canceled batch workers drain their remaining slots cheaply.
		atomic.AddInt64(&d.metrics.Failed, 1)
		return cerr
	}
	sc := getScratch()
	sc.bud = Budget{Limit: budget}
	sc.bud.arm(ctx)
	defer quarantineRelease(sc, &d.metrics, d.ov.NumNodes(), v, cc, &err)
	err = runDriverInto(d.view, d.ctxs, d.cfg, (*dynSummarizer)(d), v, cc, &sc.bud, &d.metrics, d.Tracer, dst, sc)
	sc.completed = true
	return err
}

// dynSummarizer adapts DynSum's cached PPTA to the driver interface.
type dynSummarizer DynSum

// SliceFields implements FieldSlicer for trace rendering.
func (ds *dynSummarizer) SliceFields(fs intstack.ID) []intstack.Sym {
	return (*DynSum)(ds).fields.Slice(fs)
}

// Summarize returns the PPTA result for the state, from the cache when
// possible (Algorithm 4, lines 5-9). Nodes without local edges bypass both
// the PPTA and the cache (paper §4.3). Cache hits hand the driver direct
// read-only views of the immutable cached result — no conversion, no
// allocation.
//
// On a miss with the cache live, the memoised traversal runs: it splices
// cached sub-summaries into the closure instead of re-expanding their
// states, and on success its queued per-state write-backs are committed as
// one batch — so a single cold query warms the cache for every state it
// visited, not just its own start. With DisableCache both halves are
// bypassed and the flat single-result traversal runs instead (nothing
// read, nothing written).
//
// On a condensed graph the state is rep-mapped first, so the cache is
// keyed by SCC representatives: every member of an assign cycle hits the
// one shared entry. (The driver already propagates representatives; the
// mapping here also covers direct Summarize calls and keeps mixed callers
// safe.) Freshly computed results are hash-consed before insertion, so
// structurally equal summaries across cache entries share one backing
// array.
func (ds *dynSummarizer) Summarize(n pag.NodeID, fs intstack.ID, st State, bud *Budget, sc *Scratch) (Summary, bool, error) {
	d := (*DynSum)(ds)
	view := sc.view // resolved once per query by the driver
	n = view.Rep(n)
	if d.ow != nil {
		// Open-world hook: states in actively-bodyless methods are served
		// their blended summary (or fail under SpecOnly) before the
		// closed-world machinery sees them. See openworld.go.
		if r, handled, err := d.owSummarize(n); handled {
			if err != nil {
				return Summary{}, false, err
			}
			atomic.AddInt64(&d.metrics.BlendedSummaries, 1)
			return r.summary(), true, nil
		}
	}
	if !view.HasLocalEdges(n) {
		//lint:allow scratchpin identity view is consumed before the next Summarize call
		return Summary{Frontier: sc.Identity(n, fs, st)}, false, nil
	}
	key := pptaState{node: n, fs: fs, st: st}

	if d.cfg.DisableCache {
		r, err := runPPTA(view, d.fields, key, d.cfg, bud, &d.metrics, sc)
		if err != nil {
			return Summary{}, false, err
		}
		atomic.AddInt64(&d.metrics.Summaries, 1)
		if d.Tracer != nil {
			d.Tracer(TraceEvent{Node: n, Fields: d.fields.Slice(fs), State: st, Kind: "ppta"})
		}
		return r.summary(), false, nil
	}

	if r, ok := d.cache.get(key); ok {
		atomic.AddInt64(&d.metrics.CacheHits, 1)
		return r.summary(), true, nil
	}
	atomic.AddInt64(&d.metrics.CacheMisses, 1)
	sum, err := runPPTAMemo(view, d.fields, d.cache, key, d.cfg, bud, sc)
	if err != nil {
		return Summary{}, false, err
	}
	computed := atomic.AddInt64(&d.metrics.Summaries, 1)
	if d.Tracer != nil {
		d.Tracer(TraceEvent{Node: n, Fields: d.fields.Slice(fs), State: st, Kind: "ppta"})
	}
	d.commitWriteBacks(sc, computed)
	return sum, false, nil
}

// commitWriteBacks materialises and batch-inserts the per-state summaries
// a successful memoised traversal queued in sc. Called only after the
// whole traversal completed, so every committed entry is a complete
// closure; an aborted traversal never reaches here (its pending queue was
// discarded).
//
// Materialisation is block-allocated: one pptaResult block plus one object
// and one frontier backing array cover the entire run's distinct results,
// instead of two slices and a struct per result — a PPTA run stays inside
// one method (local edges never leave it), so the block's lifetime aligns
// with per-method invalidation and the co-location makes warm readers'
// cache lines denser.
func (d *DynSum) commitWriteBacks(sc *Scratch, computed int64) {
	if len(sc.pendKeys) == 0 {
		return
	}
	// The last instant before anything is materialised: a fault here must
	// leave the cache byte-identical (the crash-consistency sweep checks).
	faultinject.Fire(faultinject.WriteBackCommit)
	// Size the blocks: runs of equal indices in pendRIdx are one SCC.
	distinct, totalObjs, totalFrs := 0, 0, 0
	prev := int32(-1)
	for _, r := range sc.pendRIdx {
		if r == prev {
			continue
		}
		prev = r
		distinct++
		objs, frs := sc.resultViews(r)
		totalObjs += len(objs)
		totalFrs += len(frs)
	}
	block := make([]pptaResult, distinct)
	var objArena []pag.NodeID
	if totalObjs > 0 {
		objArena = make([]pag.NodeID, 0, totalObjs)
	}
	var frArena []FrontierState
	if totalFrs > 0 {
		frArena = make([]FrontierState, 0, totalFrs)
	}
	// Hash-consing starts once the cache is big enough for the memory win
	// to pay for the table (see internMinSummaries).
	intern := computed > internMinSummaries

	sc.pendMeth = sc.pendMeth[:0]
	sc.pendRes = sc.pendRes[:0]
	prev = -1
	var cur *pptaResult
	bi := 0
	for i, r := range sc.pendRIdx {
		if r != prev {
			prev = r
			objs, frs := sc.resultViews(r)
			cur = &block[bi]
			bi++
			if len(objs) > 0 {
				off := len(objArena)
				objArena = append(objArena, objs...)
				cur.objs = objArena[off:len(objArena):len(objArena)]
			}
			if len(frs) > 0 {
				off := len(frArena)
				frArena = append(frArena, frs...)
				cur.frontier = frArena[off:len(frArena):len(frArena)]
			}
			if intern {
				cur.objs = d.intern.objects(cur.objs)
				cur.frontier = d.intern.frontiers(cur.frontier)
			}
		}
		sc.pendMeth = append(sc.pendMeth, d.ov.Node(sc.pendKeys[i].node).Method)
		sc.pendRes = append(sc.pendRes, cur)
	}
	sc.written += int64(d.cache.putBatch(sc.pendKeys, sc.pendMeth, sc.pendRes))
	clear(sc.pendRes) // committed results live in the cache; don't pin them from the pool
	sc.pendKeys = sc.pendKeys[:0]
	sc.pendRIdx = sc.pendRIdx[:0]
	sc.pendMeth = sc.pendMeth[:0]
	sc.pendRes = sc.pendRes[:0]
}
