// Package refine implements REFINEPTS — the refinement-based
// context-sensitive demand-driven points-to analysis of Sridharan and Bodík
// (PLDI'06), reproduced from Algorithms 1 and 2 of the paper — and its
// stripped variant NOREFINE (no refinement, no cross-query caching).
//
// REFINEPTS answers a query with nested subqueries: a load v = u.f is
// resolved by computing the points-to set of the base u, then the flowsTo
// set of each of u's objects, and recursing into the stored values at
// every discovered alias of u. Initially every load is answered
// field-based through an artificial "match" edge that jumps directly to
// all stores of the same field with the calling context cleared; only when
// the client is not satisfied are the encountered match edges refined into
// full field-sensitive subqueries and the query re-run (Algorithm 2).
//
// This nested structure re-traverses the same paths under different
// contexts — the redundancy DYNSUM's context-independent summaries remove —
// so it is preserved faithfully here; see the engine comparison in
// paper Table 2.
//
// Cycle treatment: the paper handles points-to cycles with visited flags;
// a plain visited cutoff can under-approximate, so this implementation
// uses taint-tracked memoisation (results computed under an active cycle
// are provisional and never cached as complete) plus an outer fixpoint
// loop that re-evaluates the query until no memo entry grows.
//
// Condensation opt-out: REFINEPTS/NOREFINE deliberately ignore the
// frozen graph's SCC-condensed overlay (pag/condense.go) and walk the
// base adjacency. Their role is to reproduce Sridharan–Bodík's work
// profile for the Table 2/4 comparisons, the refinement loop inspects
// concrete (load, store) match edges whose endpoints must be original
// nodes, and the memo keys ⟨node, context⟩ pairs that the fixpoint's
// taint tracking reasons about per node — rep-mapping them would change
// the measured engine, not just speed it up. DYNSUM is where the
// condensation pays (internal/core).
package refine

import (
	"sync/atomic"

	"dynsum/internal/core"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// direction distinguishes the two mutually recursive subquery kinds.
type direction uint8

const (
	dirPts  direction = iota // SBPOINTSTO: objects flowing to a variable
	dirFlow                  // SBFLOWSTO: variables an object flows to
)

// Engine implements REFINEPTS and NOREFINE over one PAG.
type Engine struct {
	// metrics must stay the first field: Metrics escapes through the
	// Analysis interface, where Snapshot reads its int64 counters with
	// sync/atomic — requiring the 8-byte alignment 32-bit platforms only
	// guarantee at the start of an allocated struct.
	metrics core.Metrics

	g   *pag.Graph
	cfg core.Config

	ctxs *intstack.Table

	// refineAll disables the match-edge shortcut (NOREFINE is the engine
	// with refineAll=true: always fully field-sensitive).
	refineAll bool
	// adHocCache enables the within-query memo reuse of REFINEPTS
	// (paper §4.4: "ad hoc caching is used to avoid unnecessary
	// traversals within a query"); NOREFINE runs without it beyond the
	// termination-required bookkeeping.
	adHocCache bool

	// CrossQueryMemo additionally keeps the field-based memo across
	// queries (complete entries only, with match-edge dependency replay).
	// The paper's REFINEPTS does not do this — §4 argues cached results
	// can only be reused under the exact same context and clash with
	// refinement — so it is off by default; the cache ablation benchmark
	// turns it on to quantify how little it helps.
	CrossQueryMemo bool

	fldsToRefine map[pag.Edge]bool
	fldsSeen     map[pag.Edge]bool

	// memo is the active memo table. For REFINEPTS it aliases baseMemo
	// during the first (field-based, fldsToRefine empty) iteration of
	// every query — that state recurs across queries, so completed
	// entries are reusable: the paper's "ad hoc caching". Refined
	// iterations use a scratch memo instead, because cached sets depend
	// on the match edges in force when they were computed.
	memo       map[memoKey]*memoEntry
	baseMemo   map[memoKey]*memoEntry
	inProgress map[memoKey]bool
	open       []*memoEntry // frames currently being evaluated

	changed bool // set when a memo entry grows during a pass
	tainted bool // set when evaluation observed an in-progress entry

	bud *core.Budget

	name string
}

type memoKey struct {
	dir direction
	v   pag.NodeID
	ctx intstack.ID
}

type memoEntry struct {
	set      *core.PointsToSet // objects (dirPts) or variables (dirFlow), with contexts
	complete bool
	// deps records the match edges this result depends on. A memo hit
	// must replay them into fldsSeen: otherwise the refinement loop
	// cannot see that a cached answer is still field-based — exactly the
	// caching/refinement incompatibility the paper points out in §4.
	deps map[pag.Edge]bool
}

func (e *memoEntry) addDep(ld pag.Edge) {
	if e.deps == nil {
		e.deps = make(map[pag.Edge]bool)
	}
	e.deps[ld] = true
}

// NewRefinePts builds a REFINEPTS engine. ctxs may be nil or shared.
func NewRefinePts(g *pag.Graph, cfg core.Config, ctxs *intstack.Table) *Engine {
	return newEngine(g, cfg, ctxs, false, true, "REFINEPTS")
}

// NewNoRefine builds a NOREFINE engine: fully field-sensitive from the
// start, with no refinement loop and no caching across queries.
func NewNoRefine(g *pag.Graph, cfg core.Config, ctxs *intstack.Table) *Engine {
	return newEngine(g, cfg, ctxs, true, false, "NOREFINE")
}

func newEngine(g *pag.Graph, cfg core.Config, ctxs *intstack.Table, refineAll, cache bool, name string) *Engine {
	core.RequireFrozen(name, g)
	if ctxs == nil {
		ctxs = new(intstack.Table)
	}
	en := &Engine{
		g:            g,
		cfg:          cfg.WithDefaults(),
		ctxs:         ctxs,
		refineAll:    refineAll,
		adHocCache:   cache,
		fldsToRefine: make(map[pag.Edge]bool),
		fldsSeen:     make(map[pag.Edge]bool),
		baseMemo:     make(map[memoKey]*memoEntry),
		inProgress:   make(map[memoKey]bool),
		name:         name,
	}
	en.memo = en.baseMemo
	return en
}

// Name implements core.Analysis.
func (en *Engine) Name() string { return en.name }

// Metrics implements core.Analysis.
func (en *Engine) Metrics() *core.Metrics { return &en.metrics }

// Ctxs returns the engine's context-stack table.
func (en *Engine) Ctxs() *intstack.Table { return en.ctxs }

// PointsTo implements core.Analysis: the fully refined (maximally precise)
// answer, obtained by running the refinement loop with an unsatisfiable
// client. NOREFINE reaches the same precision in its single pass.
func (en *Engine) PointsTo(v pag.NodeID) (*core.PointsToSet, error) {
	pts, _, err := en.PointsToSatisfying(v, func(*core.PointsToSet) bool { return false })
	return pts, err
}

// PointsToSatisfying implements core.Refinable: Algorithm 2. It re-runs
// the query with progressively more fields refined until the client
// predicate is satisfied or no match edges remain. The boolean result
// reports whether the client was satisfied.
func (en *Engine) PointsToSatisfying(v pag.NodeID, satisfied func(*core.PointsToSet) bool) (*core.PointsToSet, bool, error) {
	atomic.AddInt64(&en.metrics.Queries, 1)
	// Each query starts field-based again (fldsToRefine is per-query
	// state in Algorithm 2); NOREFINE starts — and stays — refined.
	clear(en.fldsToRefine)
	en.useBaseMemo()

	for {
		atomic.AddInt64(&en.metrics.RefineIters, 1)
		clear(en.fldsSeen)
		en.bud = core.NewBudget(en.cfg.Budget)
		pts, err := en.fixpoint(memoKey{dirPts, v, intstack.Empty})
		if err != nil {
			atomic.AddInt64(&en.metrics.Failed, 1)
			return pts, false, err
		}
		if satisfied(pts) {
			return pts, true, nil
		}
		if en.refineAll || len(en.fldsSeen) == 0 {
			// Fully field-sensitive already: the answer is final.
			return pts, false, nil
		}
		for e := range en.fldsSeen {
			en.fldsToRefine[e] = true
		}
		// Cached results depend on the match edges in force when they
		// were computed; refinement switches to a fresh scratch memo.
		en.memo = make(map[memoKey]*memoEntry)
		clear(en.inProgress)
	}
}

// useBaseMemo activates the memo for the field-based first iteration:
// persistent across queries only under CrossQueryMemo, fresh otherwise.
func (en *Engine) useBaseMemo() {
	if en.CrossQueryMemo && en.adHocCache {
		en.memo = en.baseMemo
	} else {
		en.memo = make(map[memoKey]*memoEntry)
	}
	clear(en.inProgress)
}

// fixpoint evaluates root repeatedly until the memo stops growing; with an
// acyclic subquery structure one pass suffices (nothing is tainted and the
// pass is clean).
func (en *Engine) fixpoint(root memoKey) (*core.PointsToSet, error) {
	for {
		en.changed = false
		res, err := en.eval(root)
		if err != nil {
			return res, err
		}
		if !en.changed {
			return res, nil
		}
	}
}

// eval computes one subquery, memoised. It returns the (possibly still
// growing) result set; en.tainted reports whether an in-progress entry was
// observed somewhere beneath it.
func (en *Engine) eval(key memoKey) (*core.PointsToSet, error) {
	if e, ok := en.memo[key]; ok && e.complete {
		atomic.AddInt64(&en.metrics.CacheHits, 1)
		en.replayDeps(e)
		return e.set, nil
	}
	e, ok := en.memo[key]
	if !ok {
		e = &memoEntry{set: core.NewPointsToSet()}
		en.memo[key] = e
	}
	if en.inProgress[key] {
		// Cycle: hand back the current approximation; the outer
		// fixpoint loop re-evaluates until it stabilises.
		en.tainted = true
		en.replayDeps(e)
		return e.set, nil
	}
	atomic.AddInt64(&en.metrics.CacheMisses, 1)
	en.inProgress[key] = true
	en.open = append(en.open, e)
	savedTaint := en.tainted
	en.tainted = false

	var err error
	switch key.dir {
	case dirPts:
		err = en.evalPts(key.v, key.ctx, e.set)
	case dirFlow:
		err = en.evalFlow(key.v, key.ctx, e.set)
	}

	subTainted := en.tainted
	en.tainted = savedTaint || subTainted
	delete(en.inProgress, key)
	en.open = en.open[:len(en.open)-1]
	if err != nil {
		return e.set, err
	}
	if !subTainted {
		e.complete = true
	}
	return e.set, nil
}

// useMatch records that the current evaluation took the field-based match
// shortcut across load edge ld: the refinement loop (and every open memo
// frame) must know the result is approximate.
func (en *Engine) useMatch(ld pag.Edge) {
	atomic.AddInt64(&en.metrics.MatchEdges, 1)
	en.fldsSeen[ld] = true
	for _, fr := range en.open {
		fr.addDep(ld)
	}
}

// replayDeps surfaces a reused entry's match-edge dependencies.
func (en *Engine) replayDeps(e *memoEntry) {
	for ld := range e.deps {
		en.fldsSeen[ld] = true
		for _, fr := range en.open {
			fr.addDep(ld)
		}
	}
}

// addTo merges sub into out, recording growth for the fixpoint loop.
func (en *Engine) addTo(out, sub *core.PointsToSet) {
	if out.AddAll(sub) {
		en.changed = true
	}
}

// add inserts one pair, recording growth.
func (en *Engine) add(out *core.PointsToSet, n pag.NodeID, ctx intstack.ID) {
	if out.Add(n, ctx) {
		en.changed = true
	}
}

// step debits one edge traversal.
func (en *Engine) step() error {
	atomic.AddInt64(&en.metrics.EdgesTraversed, 1)
	if !en.bud.Step() {
		return core.ErrBudget
	}
	return nil
}

// evalPts is SBPOINTSTO(v, c) — Algorithm 1.
func (en *Engine) evalPts(v pag.NodeID, ctx intstack.ID, out *core.PointsToSet) error {
	for _, e := range en.g.In(v) {
		if err := en.step(); err != nil {
			return err
		}
		switch e.Kind {
		case pag.New:
			en.add(out, e.Src, ctx) // lines 2-3: (o, c)
		case pag.Assign:
			sub, err := en.eval(memoKey{dirPts, e.Src, ctx})
			if err != nil {
				return err
			}
			en.addTo(out, sub)
		case pag.AssignGlobal: // lines 6-7: context cleared
			sub, err := en.eval(memoKey{dirPts, e.Src, intstack.Empty})
			if err != nil {
				return err
			}
			en.addTo(out, sub)
		case pag.Exit: // lines 8-9: push the call site
			if en.ctxs.Depth(ctx) >= en.cfg.MaxCtxDepth {
				return core.ErrDepth
			}
			sub, err := en.eval(memoKey{dirPts, e.Src, en.ctxs.Push(ctx, e.Label)})
			if err != nil {
				return err
			}
			en.addTo(out, sub)
		case pag.Entry: // lines 10-12: pop on match or empty
			if top, ok := en.ctxs.Peek(ctx); !ok || top == e.Label {
				sub, err := en.eval(memoKey{dirPts, e.Src, en.ctxs.Pop(ctx)})
				if err != nil {
					return err
				}
				en.addTo(out, sub)
			}
		case pag.Load: // lines 13-24
			if err := en.evalLoad(e, ctx, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalLoad resolves v = u.f (edge e: u --load(f)--> v), either through the
// field-based match shortcut or field-sensitively via alias subqueries.
func (en *Engine) evalLoad(e pag.Edge, ctx intstack.ID, out *core.PointsToSet) error {
	f := e.Field()
	if !en.refined(e) {
		// Match edge (lines 15-17): assume the load base aliases every
		// store base of f; jump to the stored values, clearing the
		// context because the intervening calls/returns are skipped.
		en.useMatch(e)
		for _, st := range en.g.StoresOf(f) {
			if err := en.step(); err != nil {
				return err
			}
			sub, err := en.eval(memoKey{dirPts, st.Src, intstack.Empty})
			if err != nil {
				return err
			}
			en.addTo(out, sub)
		}
		return nil
	}
	// Field-sensitive (lines 19-24): find the objects of the base u, the
	// variables those objects flow to, and recurse into the values stored
	// into field f at any such alias.
	basePts, err := en.eval(memoKey{dirPts, e.Src, ctx})
	if err != nil {
		return err
	}
	for _, oc := range basePts.Pairs() {
		aliases, err := en.flowsFromObj(oc.Obj, oc.Ctx)
		if err != nil {
			return err
		}
		for _, rc := range aliases.Pairs() {
			// rc.Obj is an aliased base variable; stores are local edges,
			// so only its local in-partition needs scanning.
			for _, st := range en.g.LocalIn(rc.Obj) {
				if st.Kind != pag.Store || st.Field() != f {
					continue
				}
				if err := en.step(); err != nil {
					return err
				}
				sub, err := en.eval(memoKey{dirPts, st.Src, rc.Ctx})
				if err != nil {
					return err
				}
				en.addTo(out, sub)
			}
		}
	}
	return nil
}

// refined reports whether load edge e must be handled field-sensitively.
func (en *Engine) refined(e pag.Edge) bool {
	return en.refineAll || en.fldsToRefine[e]
}

// flowsFromObj is SBFLOWSTO(o, c): the variables object o flows to,
// starting from its allocation targets.
func (en *Engine) flowsFromObj(o pag.NodeID, ctx intstack.ID) (*core.PointsToSet, error) {
	res := core.NewPointsToSet()
	// new edges are local, so the allocation targets of o all sit in its
	// local out-partition.
	for _, e := range en.g.LocalOut(o) {
		if e.Kind != pag.New {
			continue
		}
		if err := en.step(); err != nil {
			return res, err
		}
		sub, err := en.eval(memoKey{dirFlow, e.Dst, ctx})
		if err != nil {
			return res, err
		}
		en.addTo(res, sub)
	}
	return res, nil
}

// evalFlow computes the flowsTo continuation from variable v in context
// ctx: every variable (paired with its context) reachable forwards. v
// itself is included — the object has flowed to v already.
func (en *Engine) evalFlow(v pag.NodeID, ctx intstack.ID, out *core.PointsToSet) error {
	en.add(out, v, ctx)
	for _, e := range en.g.Out(v) {
		if err := en.step(); err != nil {
			return err
		}
		switch e.Kind {
		case pag.Assign:
			sub, err := en.eval(memoKey{dirFlow, e.Dst, ctx})
			if err != nil {
				return err
			}
			en.addTo(out, sub)
		case pag.AssignGlobal:
			sub, err := en.eval(memoKey{dirFlow, e.Dst, intstack.Empty})
			if err != nil {
				return err
			}
			en.addTo(out, sub)
		case pag.Entry: // forwards into a callee: push
			if en.ctxs.Depth(ctx) >= en.cfg.MaxCtxDepth {
				return core.ErrDepth
			}
			sub, err := en.eval(memoKey{dirFlow, e.Dst, en.ctxs.Push(ctx, e.Label)})
			if err != nil {
				return err
			}
			en.addTo(out, sub)
		case pag.Exit: // forwards out of a callee: pop on match or empty
			if top, ok := en.ctxs.Peek(ctx); !ok || top == e.Label {
				sub, err := en.eval(memoKey{dirFlow, e.Dst, en.ctxs.Pop(ctx)})
				if err != nil {
					return err
				}
				en.addTo(out, sub)
			}
		case pag.Store: // the value is written into e.Dst.f
			if err := en.evalStore(e, ctx, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalStore continues a flowsTo traversal across x.f = v (edge e:
// v --store(f)--> x): the object now sits in field f of x's objects and
// re-emerges at every load of f whose base aliases x. Refinement is per
// (load, store) match edge: unrefined loads are jumped to directly with
// the context cleared, refined ones go through the alias subqueries.
func (en *Engine) evalStore(e pag.Edge, ctx intstack.ID, out *core.PointsToSet) error {
	f := e.Field()
	// aliases of the store base, computed lazily once a refined load needs them.
	var aliases *core.PointsToSet
	for _, ld := range en.g.LoadsOf(f) {
		if err := en.step(); err != nil {
			return err
		}
		if !en.refined(ld) {
			en.useMatch(ld)
			sub, err := en.eval(memoKey{dirFlow, ld.Dst, intstack.Empty})
			if err != nil {
				return err
			}
			en.addTo(out, sub)
			continue
		}
		if aliases == nil {
			aliases = core.NewPointsToSet()
			basePts, err := en.eval(memoKey{dirPts, e.Dst, ctx})
			if err != nil {
				return err
			}
			for _, oc := range basePts.Pairs() {
				sub, err := en.flowsFromObj(oc.Obj, oc.Ctx)
				if err != nil {
					return err
				}
				aliases.AddAll(sub)
			}
		}
		for _, rc := range aliases.Pairs() {
			if rc.Obj != ld.Src { // alias must be this load's base
				continue
			}
			sub, err := en.eval(memoKey{dirFlow, ld.Dst, rc.Ctx})
			if err != nil {
				return err
			}
			en.addTo(out, sub)
		}
	}
	return nil
}
