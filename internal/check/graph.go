package check

import (
	"dynsum/internal/pag"
)

// GraphData is the read surface Graph validates. *pag.Graph implements it
// in both builder and frozen form; tests wrap one to corrupt a single
// accessor and prove the corresponding clause fires.
type GraphData interface {
	Frozen() bool
	NumNodes() int
	NumEdges() int
	EdgeKindCount(k pag.EdgeKind) int
	NumMethods() int
	NumFields() int
	NumCallSites() int
	Node(n pag.NodeID) pag.Node
	NodeString(n pag.NodeID) string
	Out(n pag.NodeID) []pag.Edge
	In(n pag.NodeID) []pag.Edge
	LocalOut(n pag.NodeID) []pag.Edge
	GlobalOut(n pag.NodeID) []pag.Edge
	LocalIn(n pag.NodeID) []pag.Edge
	GlobalIn(n pag.NodeID) []pag.Edge
	HasLocalIn(n pag.NodeID) bool
	HasLocalOut(n pag.NodeID) bool
	HasGlobalIn(n pag.NodeID) bool
	HasGlobalOut(n pag.NodeID) bool
	LoadsOf(f pag.FieldID) []pag.Edge
	StoresOf(f pag.FieldID) []pag.Edge
}

var _ GraphData = (*pag.Graph)(nil)

// Graph validates the adjacency representation of g — builder slices or
// frozen CSR alike. The partitioned accessors read the frozen layout only,
// so a builder-form graph's Out/In spans are split at their first global
// edge instead, which leaves every clause below meaningful:
//
//   - every span endpoint and label is in range
//   - the local/global partition: LocalOut holds only local kinds,
//     GlobalOut only global kinds (same for In), and Out is exactly
//     LocalOut followed by GlobalOut
//   - spans are anchored: e.Src == n on out-edges, e.Dst == n on in-edges
//   - no duplicate edge within a span
//   - the out and in sides mirror each other edge for edge
//   - the per-node adjacency flags equal span non-emptiness exactly
//   - NumEdges and the per-kind counters match the spans
//   - the LoadsOf/StoresOf field indexes agree with the edges
//   - edge shape rules (the Validate subset that representation changes
//     could silently break): New sourced at an object in the same method,
//     Assign and all non-New local kinds confined to the locals of one
//     method
//
// It returns nil on a healthy graph, or up to maxViolations joined
// errors naming the offending nodes.
func Graph(g GraphData) error {
	r := &reporter{}
	n := g.NumNodes()

	outTotal, inTotal := 0, 0
	kindCount := make([]int, pag.NumEdgeKinds)
	mirror := map[pag.Edge]int{} // +1 per out occurrence, -1 per in
	loads := map[pag.Edge]bool{}
	stores := map[pag.Edge]bool{}

	for i := 0; i < n && !r.full(); i++ {
		nd := pag.NodeID(i)
		lo, gout := splitSpan(g.Out(nd))
		li, gin := splitSpan(g.In(nd))
		if g.Frozen() {
			lo, gout = g.LocalOut(nd), g.GlobalOut(nd)
			li, gin = g.LocalIn(nd), g.GlobalIn(nd)
		}

		checkSpan(r, g, nd, "local-out", lo, true, false)
		checkSpan(r, g, nd, "global-out", gout, false, false)
		checkSpan(r, g, nd, "local-in", li, true, true)
		checkSpan(r, g, nd, "global-in", gin, false, true)

		if !spanConcat(g.Out(nd), lo, gout) {
			r.errorf("graph: Out(%s) is not LocalOut followed by GlobalOut", g.NodeString(nd))
		}
		if !spanConcat(g.In(nd), li, gin) {
			r.errorf("graph: In(%s) is not LocalIn followed by GlobalIn", g.NodeString(nd))
		}

		checkFlag(r, g, nd, "HasLocalOut", g.HasLocalOut(nd), len(lo))
		checkFlag(r, g, nd, "HasGlobalOut", g.HasGlobalOut(nd), len(gout))
		checkFlag(r, g, nd, "HasLocalIn", g.HasLocalIn(nd), len(li))
		checkFlag(r, g, nd, "HasGlobalIn", g.HasGlobalIn(nd), len(gin))

		outTotal += len(lo) + len(gout)
		inTotal += len(li) + len(gin)
		for _, e := range g.Out(nd) {
			if int(e.Kind) < len(kindCount) {
				kindCount[e.Kind]++
			}
			mirror[e]++
			switch e.Kind {
			case pag.Load:
				loads[e] = true
			case pag.Store:
				stores[e] = true
			}
			checkEdgeShape(r, g, e)
		}
		for _, e := range g.In(nd) {
			mirror[e]--
		}
	}

	for e, c := range mirror {
		if c != 0 && !r.full() {
			side := "out without in"
			if c < 0 {
				side = "in without out"
			}
			r.errorf("graph: edge %s -%s-> %s present %s (imbalance %+d)",
				nodeName(g, e.Src), e.Kind, nodeName(g, e.Dst), side, c)
		}
	}

	if outTotal != g.NumEdges() {
		r.errorf("graph: NumEdges() = %d but spans hold %d out-edges", g.NumEdges(), outTotal)
	}
	if inTotal != g.NumEdges() {
		r.errorf("graph: NumEdges() = %d but spans hold %d in-edges", g.NumEdges(), inTotal)
	}
	for k := 0; k < pag.NumEdgeKinds; k++ {
		if got := g.EdgeKindCount(pag.EdgeKind(k)); got != kindCount[k] {
			r.errorf("graph: EdgeKindCount(%s) = %d but spans hold %d", pag.EdgeKind(k), got, kindCount[k])
		}
	}

	checkFieldIndex(r, g, "LoadsOf", g.LoadsOf, pag.Load, loads)
	checkFieldIndex(r, g, "StoresOf", g.StoresOf, pag.Store, stores)

	return r.err()
}

// checkSpan validates one adjacency span: endpoints in range, kind
// partition respected, anchored at n, labels resolvable, duplicate-free.
func checkSpan(r *reporter, g GraphData, n pag.NodeID, span string, es []pag.Edge, local, in bool) {
	seen := map[pag.Edge]bool{}
	for _, e := range es {
		if r.full() {
			return
		}
		if e.Src < 0 || int(e.Src) >= g.NumNodes() || e.Dst < 0 || int(e.Dst) >= g.NumNodes() {
			r.errorf("graph: %s span of %s: edge %v endpoint out of range [0,%d)", span, g.NodeString(n), e, g.NumNodes())
			continue
		}
		if local != e.Kind.IsLocal() {
			r.errorf("graph: %s span of %s holds %s edge %s -> %s — partition broken",
				span, g.NodeString(n), e.Kind, nodeName(g, e.Src), nodeName(g, e.Dst))
		}
		anchor := e.Src
		if in {
			anchor = e.Dst
		}
		if anchor != n {
			r.errorf("graph: %s span of %s holds foreign edge %s -%s-> %s",
				span, g.NodeString(n), nodeName(g, e.Src), e.Kind, nodeName(g, e.Dst))
		}
		switch e.Kind {
		case pag.Load, pag.Store:
			if e.Label < 0 || int(e.Label) >= g.NumFields() {
				r.errorf("graph: %s edge %s -> %s has invalid field label %d",
					e.Kind, nodeName(g, e.Src), nodeName(g, e.Dst), e.Label)
			}
		case pag.Entry, pag.Exit:
			if e.Label < 0 || int(e.Label) >= g.NumCallSites() {
				r.errorf("graph: %s edge %s -> %s has invalid call-site label %d",
					e.Kind, nodeName(g, e.Src), nodeName(g, e.Dst), e.Label)
			}
		}
		if seen[e] {
			r.errorf("graph: %s span of %s holds duplicate edge %s -%s-> %s",
				span, g.NodeString(n), nodeName(g, e.Src), e.Kind, nodeName(g, e.Dst))
		}
		seen[e] = true
	}
}

// checkEdgeShape enforces the method-confinement shape rules on one
// out-edge with in-range endpoints.
func checkEdgeShape(r *reporter, g GraphData, e pag.Edge) {
	if e.Src < 0 || int(e.Src) >= g.NumNodes() || e.Dst < 0 || int(e.Dst) >= g.NumNodes() {
		return // already reported by checkSpan
	}
	src, dst := g.Node(e.Src), g.Node(e.Dst)
	switch {
	case e.Kind == pag.New:
		if src.Kind != pag.Object {
			r.errorf("graph: new edge %s -> %s not sourced at an object", nodeName(g, e.Src), nodeName(g, e.Dst))
		} else if dst.Kind == pag.Global {
			r.errorf("graph: new edge %s -> %s targets a global", nodeName(g, e.Src), nodeName(g, e.Dst))
		} else if src.Method != dst.Method {
			r.errorf("graph: new edge %s -> %s crosses methods", nodeName(g, e.Src), nodeName(g, e.Dst))
		}
	case e.Kind.IsLocal(): // assign/load/store
		if src.Kind == pag.Global || dst.Kind == pag.Global {
			r.errorf("graph: local %s edge %s -> %s touches a global", e.Kind, nodeName(g, e.Src), nodeName(g, e.Dst))
		} else if src.Method != dst.Method {
			r.errorf("graph: local %s edge %s -> %s crosses methods", e.Kind, nodeName(g, e.Src), nodeName(g, e.Dst))
		}
	}
}

func checkFlag(r *reporter, g GraphData, n pag.NodeID, name string, flag bool, spanLen int) {
	if flag != (spanLen > 0) {
		r.errorf("graph: %s(%s) = %v but span has %d edges", name, g.NodeString(n), flag, spanLen)
	}
}

// spanConcat reports whether full is exactly a followed by b.
func spanConcat(full, a, b []pag.Edge) bool {
	if len(full) != len(a)+len(b) {
		return false
	}
	for i, e := range a {
		if full[i] != e {
			return false
		}
	}
	for i, e := range b {
		if full[len(a)+i] != e {
			return false
		}
	}
	return true
}

// checkFieldIndex verifies that the per-field edge index holds exactly
// the kind-matching edges of the spans, each under its own field.
func checkFieldIndex(r *reporter, g GraphData, name string, index func(pag.FieldID) []pag.Edge, kind pag.EdgeKind, want map[pag.Edge]bool) {
	got := 0
	for f := 0; f < g.NumFields() && !r.full(); f++ {
		for _, e := range index(pag.FieldID(f)) {
			got++
			if e.Kind != kind {
				r.errorf("graph: %s(%d) holds %s edge %s -> %s", name, f, e.Kind, nodeName(g, e.Src), nodeName(g, e.Dst))
				continue
			}
			if int(e.Label) != f {
				r.errorf("graph: %s(%d) holds edge %s -> %s labelled %d", name, f, nodeName(g, e.Src), nodeName(g, e.Dst), e.Label)
				continue
			}
			if !want[e] {
				r.errorf("graph: %s(%d) holds edge %s -> %s absent from the spans", name, f, nodeName(g, e.Src), nodeName(g, e.Dst))
			}
		}
	}
	if got != len(want) && !r.full() {
		r.errorf("graph: %s indexes %d edges, spans hold %d", name, got, len(want))
	}
}

// splitSpan splits a builder-form span at its first global edge: the
// local half, then everything after — where a misplaced local edge then
// shows up as a partition violation.
func splitSpan(es []pag.Edge) (local, global []pag.Edge) {
	for i, e := range es {
		if !e.Kind.IsLocal() {
			return es[:i], es[i:]
		}
	}
	return es, nil
}
