package core

import (
	"sync/atomic"

	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file implements the context-handling worklist of paper Algorithm 4
// generically, so that DYNSUM (dynamic summaries) and STASUM (static
// summaries) share one driver and differ only in how method-local
// reachability is summarised.
//
// The driver's hot loops iterate the partitioned adjacency accessors
// (GlobalIn/GlobalOut): only the context-bearing global edges of a
// frontier node are visited, with no kind-filter branch, and all per-query
// state lives in a pooled Scratch so a warm-cache query allocates nothing.

// FrontierState is a local-closure exit point: the traversal reached Node
// with field stack Fs in direction St, and Node touches a global edge in
// the continuing direction.
type FrontierState struct {
	Node pag.NodeID
	Fs   intstack.ID
	St   State
}

// Summary is the local-closure result handed to the driver: objects found
// entirely through local edges, plus the frontier states to expand over
// global edges. Field-stack IDs are private to the Summarizer; the driver
// passes them through opaquely.
//
// Summary slices are read-only views — they may alias the producer's
// cache (shared across queries and goroutines) or its Scratch — and are
// valid only until the next Summarize call of the same query.
type Summary struct {
	Objects  []pag.NodeID
	Frontier []FrontierState
}

// Summarizer produces the local-closure summary for a state. Reused
// reports whether the summary came from a cache (for tracing/metrics).
// sc is the calling query's workspace: implementations run their local
// closure inside it and may return Summary slices that alias it (see
// Scratch.Identity), but must not retain it.
type Summarizer interface {
	Summarize(n pag.NodeID, fs intstack.ID, st State, bud *Budget, sc *Scratch) (sum Summary, reused bool, err error)
}

// FieldSlicer is optionally implemented by Summarizers that can render
// their opaque field-stack IDs; the driver uses it to fill TraceEvent
// field columns (paper Table 1's f column).
type FieldSlicer interface {
	SliceFields(fs intstack.ID) []intstack.Sym
}

// driverTuple is one worklist element of Algorithm 4.
type driverTuple struct {
	node pag.NodeID
	fs   intstack.ID
	st   State
	ctx  intstack.ID
}

// RunDriver executes the Algorithm 4 worklist for a points-to query on v
// in context ctx over view, delegating local closures to sum. Every global-edge traversal is debited against bud.
// trace may be nil. STASUM drives its precomputed summaries through here
// over the base view (they are keyed by original boundary nodes, so it
// never condenses);
// DYNSUM enters through DynSum.Query with its own per-epoch view.
func RunDriver(view *pag.View, ctxs *intstack.Table, cfg Config, sum Summarizer,
	v pag.NodeID, ctx intstack.ID, bud *Budget, m *Metrics, trace func(TraceEvent)) (pts *PointsToSet, err error) {

	pts = NewPointsToSet()
	sc := getScratch()
	defer quarantineRelease(sc, m, view.NumNodes(), v, ctx, &err)
	err = runDriverInto(view, ctxs, cfg, sum, v, ctx, bud, m, trace, pts, sc)
	sc.completed = true
	return pts, err
}

// runDriverInto is RunDriver accumulating into a caller-supplied set with
// a caller-supplied workspace over a caller-resolved view — the
// allocation-free core. On a condensed view every node flowing through
// the driver and the PPTA is a representative: the start tuple is
// rep-mapped once and condensed edges carry rep-mapped endpoints, so
// visited tables, worklist tuples and summary-cache keys all collapse
// onto representatives for free.
func runDriverInto(view *pag.View, ctxs *intstack.Table, cfg Config, sum Summarizer,
	v pag.NodeID, ctx intstack.ID, bud *Budget, m *Metrics, trace func(TraceEvent),
	pts *PointsToSet, sc *Scratch) error {

	sc.view = view
	sc.resetDriver()
	defer sc.flushMetrics(m)
	// Entering through the representative is sound because every SCC
	// member has the identical local closure (pag/condense.go) and the
	// answer contains objects, never the queried variable itself.
	start := driverTuple{node: view.Rep(v), fs: intstack.Empty, st: S1, ctx: ctx}
	sc.propagate(start)

	for len(sc.dwork) > 0 {
		cur := sc.dwork[len(sc.dwork)-1]
		sc.dwork = sc.dwork[:len(sc.dwork)-1]
		sc.tuples++

		res, reused, err := sum.Summarize(cur.node, cur.fs, cur.st, bud, sc)
		if err != nil {
			atomic.AddInt64(&m.Failed, 1)
			return err
		}
		if trace != nil {
			ev := TraceEvent{
				Node: cur.node, State: cur.st,
				Ctx: ctxs.Slice(cur.ctx), Reused: reused, Kind: "tuple",
			}
			if fsl, ok := sum.(FieldSlicer); ok {
				ev.Fields = fsl.SliceFields(cur.fs)
			}
			trace(ev)
		}

		// Objects found by the local closure are tagged with the tuple's
		// context: local edges never changed it (Algorithm 4, lines 10-11).
		for _, o := range res.Objects {
			pts.Add(o, cur.ctx)
		}

		// Expand each frontier state over the global edges, performing the
		// RRP context matching of Figure 3(b) (Algorithm 4, lines 12-28).
		for _, fr := range res.Frontier {
			switch fr.St {
			case S1: // continue backwards over incoming global edges
				for _, e := range view.GlobalIn(fr.Node) {
					if !bud.Step() {
						atomic.AddInt64(&m.Failed, 1)
						return bud.Err()
					}
					sc.edges++
					switch e.Kind {
					case pag.Exit:
						if ctxs.Depth(cur.ctx) >= cfg.MaxCtxDepth {
							atomic.AddInt64(&m.Failed, 1)
							return ErrDepth
						}
						sc.propagate(driverTuple{e.Src, fr.Fs, S1, ctxs.Push(cur.ctx, e.Label)})
					case pag.Entry:
						if top, ok := ctxs.Peek(cur.ctx); !ok || top == e.Label {
							sc.propagate(driverTuple{e.Src, fr.Fs, S1, ctxs.Pop(cur.ctx)})
						}
					case pag.AssignGlobal:
						sc.propagate(driverTuple{e.Src, fr.Fs, S1, intstack.Empty})
					}
				}
			case S2: // continue forwards over outgoing global edges
				for _, e := range view.GlobalOut(fr.Node) {
					if !bud.Step() {
						atomic.AddInt64(&m.Failed, 1)
						return bud.Err()
					}
					sc.edges++
					switch e.Kind {
					case pag.Entry:
						if ctxs.Depth(cur.ctx) >= cfg.MaxCtxDepth {
							atomic.AddInt64(&m.Failed, 1)
							return ErrDepth
						}
						sc.propagate(driverTuple{e.Dst, fr.Fs, S2, ctxs.Push(cur.ctx, e.Label)})
					case pag.Exit:
						if top, ok := ctxs.Peek(cur.ctx); !ok || top == e.Label {
							sc.propagate(driverTuple{e.Dst, fr.Fs, S2, ctxs.Pop(cur.ctx)})
						}
					case pag.AssignGlobal:
						sc.propagate(driverTuple{e.Dst, fr.Fs, S2, intstack.Empty})
					}
				}
			}
		}
	}
	return nil
}
