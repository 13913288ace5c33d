package check

import (
	"sort"

	"dynsum/internal/pag"
)

// View is the adjacency read surface the condensation and overlay
// validators check: a condensation's view, or the base or condensed view
// of an evolved overlay. *pag.View implements it; tests wrap one to
// corrupt a single accessor and prove the corresponding clause fires.
type View interface {
	Rep(n pag.NodeID) pag.NodeID
	LocalOut(n pag.NodeID) []pag.Edge
	GlobalOut(n pag.NodeID) []pag.Edge
	LocalIn(n pag.NodeID) []pag.Edge
	GlobalIn(n pag.NodeID) []pag.Edge
	HasGlobalIn(n pag.NodeID) bool
	HasGlobalOut(n pag.NodeID) bool
	HasLocalEdges(n pag.NodeID) bool
}

var _ View = (*pag.View)(nil)

// Condensation validates the condensed view c against its base graph g:
//
//   - Rep is idempotent, in range, and picks the smallest member
//     (Rep(n) <= n); members share their representative's method
//   - non-representatives expose empty condensed spans
//   - each representative's condensed spans equal exactly the deduplicated
//     union of its members' base spans with endpoints mapped through Rep,
//     minus intra-SCC assign self-loops — no edge lost, none invented
//   - no assign self-loop survives in any condensed span
//   - condensed flags are the OR of the members' base flags
//
// A trivial condensation (no assign cycle — the condensed view aliases
// the base layout, and Rep is the identity) is validated by the same
// clauses with every SCC a singleton.
//
// g must be the frozen graph that produced c. Returns nil when healthy.
func Condensation(g GraphData, c View) error {
	r := &reporter{}
	n := g.NumNodes()

	// Rep well-formedness and member grouping.
	members := map[pag.NodeID][]pag.NodeID{}
	for i := 0; i < n && !r.full(); i++ {
		nd := pag.NodeID(i)
		rep := c.Rep(nd)
		if rep < 0 || int(rep) >= n {
			r.errorf("cond: Rep(%s) = %d out of range", g.NodeString(nd), rep)
			continue
		}
		if rep > nd {
			r.errorf("cond: Rep(%s) = %s is not the smallest member", g.NodeString(nd), g.NodeString(rep))
		}
		if rr := c.Rep(rep); rr != rep {
			r.errorf("cond: Rep not idempotent: Rep(%s)=%s but Rep(%s)=%s",
				g.NodeString(nd), g.NodeString(rep), g.NodeString(rep), g.NodeString(rr))
		}
		if g.Node(nd).Method != g.Node(rep).Method {
			r.errorf("cond: SCC of %s crosses methods: member %s", g.NodeString(rep), g.NodeString(nd))
		}
		members[rep] = append(members[rep], nd)
	}
	// A trivial condensation aliases the base layout verbatim, so a
	// singleton assign self-loop (a 1-cycle Tarjan leaves alone) is
	// retained there; the non-trivial gather strips self-loops for every
	// rep. Mirror that exactly. Trivial means no node maps elsewhere.
	strip := len(members) < n

	for i := 0; i < n && !r.full(); i++ {
		nd := pag.NodeID(i)
		if c.Rep(nd) != nd {
			// Non-representative: all four spans must be empty.
			if len(c.LocalOut(nd))+len(c.GlobalOut(nd))+len(c.LocalIn(nd))+len(c.GlobalIn(nd)) != 0 {
				r.errorf("cond: non-representative %s has non-empty condensed spans", g.NodeString(nd))
			}
			continue
		}

		// Representative: spans must equal the rep-mapped member union.
		ms := members[nd]
		checkCondSpan(r, g, c, nd, "local-out", c.LocalOut(nd), gatherMembers(c, ms, g.LocalOut, strip), strip)
		checkCondSpan(r, g, c, nd, "global-out", c.GlobalOut(nd), gatherMembers(c, ms, g.GlobalOut, false), strip)
		checkCondSpan(r, g, c, nd, "local-in", c.LocalIn(nd), gatherMembers(c, ms, g.LocalIn, strip), strip)
		checkCondSpan(r, g, c, nd, "global-in", c.GlobalIn(nd), gatherMembers(c, ms, g.GlobalIn, false), strip)

		// Flags aggregate the members' base flags.
		gin, gout, ledges := false, false, false
		for _, m := range ms {
			gin = gin || g.HasGlobalIn(m)
			gout = gout || g.HasGlobalOut(m)
			ledges = ledges || g.HasLocalIn(m) || g.HasLocalOut(m)
		}
		if c.HasGlobalIn(nd) != gin {
			r.errorf("cond: HasGlobalIn(%s) = %v, member aggregate %v", g.NodeString(nd), c.HasGlobalIn(nd), gin)
		}
		if c.HasGlobalOut(nd) != gout {
			r.errorf("cond: HasGlobalOut(%s) = %v, member aggregate %v", g.NodeString(nd), c.HasGlobalOut(nd), gout)
		}
		if c.HasLocalEdges(nd) != ledges {
			r.errorf("cond: HasLocalEdges(%s) = %v, member aggregate %v", g.NodeString(nd), c.HasLocalEdges(nd), ledges)
		}
	}
	return r.err()
}

// gatherMembers computes the expected condensed span of one rep: the
// union of the members' base spans with endpoints mapped through Rep,
// deduplicated, and — on local spans — with assign self-loops (collapsed
// intra-SCC cycle edges) removed.
func gatherMembers(c View, members []pag.NodeID, span func(pag.NodeID) []pag.Edge, stripAssignLoops bool) []pag.Edge {
	var out []pag.Edge
	for _, m := range members {
		for _, e := range span(m) {
			me := pag.Edge{Src: c.Rep(e.Src), Dst: c.Rep(e.Dst), Kind: e.Kind, Label: e.Label}
			if stripAssignLoops && me.Kind == pag.Assign && me.Src == me.Dst {
				continue
			}
			out = append(out, me)
		}
	}
	return sortedDedup(out)
}

// checkCondSpan compares the condensed span against the recomputed
// expectation as sorted sets (trivial condensations alias the unsorted
// base spans, so order is representation-defined) and re-checks the
// self-loop and rep-mapping invariants directly on the exposed span.
func checkCondSpan(r *reporter, g GraphData, c View, rep pag.NodeID, span string, got, want []pag.Edge, strip bool) {
	if r.full() {
		return
	}
	for _, e := range got {
		if strip && e.Kind == pag.Assign && e.Src == e.Dst {
			r.errorf("cond: %s span of %s retains assign self-loop on %s", span, g.NodeString(rep), nodeName(g, e.Src))
		}
		if e.Src >= 0 && int(e.Src) < g.NumNodes() && c.Rep(e.Src) != e.Src {
			r.errorf("cond: %s span of %s has unmapped source %s", span, g.NodeString(rep), nodeName(g, e.Src))
		}
		if e.Dst >= 0 && int(e.Dst) < g.NumNodes() && c.Rep(e.Dst) != e.Dst {
			r.errorf("cond: %s span of %s has unmapped target %s", span, g.NodeString(rep), nodeName(g, e.Dst))
		}
	}
	gs := sortedDedup(append([]pag.Edge(nil), got...))
	if len(gs) != len(got) {
		r.errorf("cond: %s span of %s holds duplicate edges", span, g.NodeString(rep))
	}
	if !edgesEqual(gs, want) {
		r.errorf("cond: %s span of %s diverges from member union: got %d edges, want %d (first diff %s)",
			span, g.NodeString(rep), len(gs), len(want), firstDiff(g, gs, want))
	}
}

// sortedDedup sorts by (Src, Dst, Kind, Label) and removes duplicates.
func sortedDedup(es []pag.Edge) []pag.Edge {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Label < b.Label
	})
	w := 0
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			es[w] = e
			w++
		}
	}
	return es[:w]
}

func edgesEqual(a, b []pag.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstDiff names the first edge present in exactly one of two sorted
// deduplicated edge sets, for diagnostics.
func firstDiff(g GraphData, a, b []pag.Edge) string {
	i, j := 0, 0
	name := func(e pag.Edge, side string) string {
		return "edge " + nodeName(g, e.Src) + " -" + e.Kind.String() + "-> " + nodeName(g, e.Dst) + " " + side
	}
	less := func(x, y pag.Edge) bool {
		if x.Src != y.Src {
			return x.Src < y.Src
		}
		if x.Dst != y.Dst {
			return x.Dst < y.Dst
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Label < y.Label
	}
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case less(a[i], b[j]):
			return name(a[i], "unexpected")
		default:
			return name(b[j], "missing")
		}
	}
	if i < len(a) {
		return name(a[i], "unexpected")
	}
	if j < len(b) {
		return name(b[j], "missing")
	}
	return "none"
}
