package pag

// This file implements View, the one adjacency read path of the query
// engines.
//
// A View is a frozen CSR layout — the base graph's or its condensation's
// — plus an optional representative map and an optional per-node patch
// table. Node n reads its patch entry when it has one and its CSR span
// otherwise, so every edge read is one span lookup plus at most one patch
// check. At epoch 0 a View aliases the frozen arrays outright (no patch
// table, nothing copied); the epoch overlay (internal/delta) hands the
// engines patched Views after each applied epoch.
//
// Within every span — CSR or patched — local edges come first and global
// edges after, so LocalIn/LocalOut/GlobalIn/GlobalOut return plain
// capacity-clamped subslices and the hot loops run without kind filters.

// View is a read-only, partitioned adjacency layer. The zero value is not
// usable; obtain one from Graph.View, Condensation.View or the delta
// overlay.
type View struct {
	c     *csr
	flags []nodeFlags
	rep   []NodeID  // nil: Rep is the identity
	patch []int32   // node → adj entry, -1 for the CSR span; nil: no patches
	adj   []NodeAdj // patched nodes' replacement adjacency
}

// NodeAdj is one patched node's replacement adjacency: full out/in edge
// lists partitioned local-first, with the split recorded — the same
// contract as a CSR span.
type NodeAdj struct {
	Out, In           []Edge
	OutSplit, InSplit int32
}

// View returns the frozen graph's base adjacency: true endpoints, no
// patches. It panics on a builder-form graph.
func (g *Graph) View() *View { return &View{c: g.layout(), flags: g.flags} }

// View returns the condensed adjacency: representative endpoints, the
// members' aggregated flags. On a trivial condensation it aliases the
// base layout.
func (c *Condensation) View() *View { return &View{c: c.c, flags: c.flags, rep: c.rep} }

// Patched returns a copy of v with rep as its representative map (nil for
// the identity) and patch/adj as its patch table: patch[n] >= 0 selects
// adj[patch[n]] as node n's adjacency, -1 the CSR span. patch must cover
// every node the view is read at — nodes beyond the CSR range included.
func (v *View) Patched(rep []NodeID, patch []int32, adj []NodeAdj) *View {
	w := *v
	w.rep, w.patch, w.adj = rep, patch, adj
	return &w
}

// NumNodes returns the number of nodes v can be read at.
func (v *View) NumNodes() int {
	if v.patch != nil {
		return len(v.patch)
	}
	return len(v.c.outStart) - 1
}

// Rep maps n to its representative (n itself outside any collapsed SCC).
func (v *View) Rep(n NodeID) NodeID {
	if v.rep == nil {
		return n
	}
	return v.rep[n]
}

// patched returns n's patch entry, or nil when n reads the CSR span.
func (v *View) patched(n NodeID) *NodeAdj {
	if v.patch != nil {
		if p := v.patch[n]; p >= 0 {
			return &v.adj[p]
		}
	}
	return nil
}

// LocalOut returns n's outgoing local (new/assign/load/store) edges — the
// PPTA's S2 iteration domain.
func (v *View) LocalOut(n NodeID) []Edge {
	if a := v.patched(n); a != nil {
		return span(a.Out, 0, a.OutSplit)
	}
	return v.c.localOut(n)
}

// GlobalOut returns n's outgoing global (assignglobal/entry/exit) edges —
// the Algorithm 4 driver's S2 iteration domain.
func (v *View) GlobalOut(n NodeID) []Edge {
	if a := v.patched(n); a != nil {
		return span(a.Out, a.OutSplit, int32(len(a.Out)))
	}
	return v.c.globalOut(n)
}

// LocalIn returns n's incoming local edges — the PPTA's S1 iteration
// domain.
func (v *View) LocalIn(n NodeID) []Edge {
	if a := v.patched(n); a != nil {
		return span(a.In, 0, a.InSplit)
	}
	return v.c.localIn(n)
}

// GlobalIn returns n's incoming global edges — the driver's S1 iteration
// domain.
func (v *View) GlobalIn(n NodeID) []Edge {
	if a := v.patched(n); a != nil {
		return span(a.In, a.InSplit, int32(len(a.In)))
	}
	return v.c.globalIn(n)
}

// HasGlobalIn reports the PPTA S1 frontier condition (paper Algorithm 3
// line 15). Patched entries derive it from span emptiness, which is exact
// for the current edge set.
func (v *View) HasGlobalIn(n NodeID) bool {
	if a := v.patched(n); a != nil {
		return int(a.InSplit) < len(a.In)
	}
	return v.flags[n]&flagGlobalIn != 0
}

// HasGlobalOut reports the PPTA S2 frontier condition (Algorithm 3 line
// 28).
func (v *View) HasGlobalOut(n NodeID) bool {
	if a := v.patched(n); a != nil {
		return int(a.OutSplit) < len(a.Out)
	}
	return v.flags[n]&flagGlobalOut != 0
}

// HasLocalEdges reports whether n touches any local edge; DYNSUM skips the
// PPTA for nodes without (paper §4.3). On a condensed view the flag is the
// members' aggregate, so an all-assign SCC keeps it although its condensed
// local spans are empty.
func (v *View) HasLocalEdges(n NodeID) bool {
	if a := v.patched(n); a != nil {
		return a.OutSplit > 0 || a.InSplit > 0
	}
	return v.flags[n]&(flagLocalIn|flagLocalOut) != 0
}
