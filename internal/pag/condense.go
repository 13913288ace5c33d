package pag

import (
	"cmp"
	"fmt"
	"slices"
)

// This file implements the offline condensation pass that runs inside
// Freeze: a Tarjan strongly-connected-components computation over the
// assign edges, collapsing every assign cycle into a representative node
// and materialising a condensed CSR overlay next to the base layout.
//
// Why assign SCCs and nothing else: the PPTA (paper Algorithm 3) walks
// local edges carrying a ⟨field-stack, direction⟩ state. Assign edges are
// the only local kind that preserves that state exactly — new emits or
// flips direction, load/store push and pop fields — so they are the only
// edges along which two nodes can be state-equivalent. If x and y lie on
// a common assign cycle they reach each other both forwards and backwards
// through state-preserving edges, hence for every field stack f and
// direction s the PPTA closures of (x, f, s) and (y, f, s) visit exactly
// the same state set, emit the same objects and expose the same frontier.
// The whole SCC can therefore be traversed — and summarised, and cached —
// as one node. (A single-successor assign *chain* x→y does NOT qualify:
// the S1 closure of x excludes y, so chain collapse would corrupt
// summaries. Only cycles are collapsed.)
//
// The overlay maps every edge endpoint through Rep and deduplicates the
// result: the cycle's internal assign edges vanish as self-loops, and
// parallel edges that distinct members contributed to the same external
// neighbour merge into one. Global (assignglobal/entry/exit) edges are
// remapped and merged the same way, so the Algorithm 4 driver can expand
// a representative's frontier over the union of its members' global
// edges without ever enumerating members.
//
// On a graph without assign cycles the overlay is free: it aliases the
// base CSR arrays and Rep is the identity.

// Condensation is the SCC-collapsed view of a frozen Graph. It is built
// by Freeze and immutable afterwards; engines opt in per query (DYNSUM
// does, the comparison engines keep the base adjacency so their work
// counters stay faithful to the papers they reproduce).
type Condensation struct {
	// rep maps every node to its SCC representative (the smallest member
	// NodeID, so representatives are deterministic). nil when the graph
	// has no nontrivial SCC — Rep is then the identity.
	rep []NodeID

	// c is the condensed adjacency in the same CSR shape as the base
	// layout. Non-representative nodes have empty spans; when rep is nil
	// the struct aliases the base csr outright.
	c *csr

	// flags aggregates the adjacency flags of all SCC members onto the
	// representative (aliases the base flags when rep is nil).
	flags []nodeFlags

	stats CondenseStats
}

// CondenseStats summarises what the condensation pass found and saved.
type CondenseStats struct {
	Nodes int // nodes in the graph
	Reps  int // representatives (condensed node count)

	SCCs           int // nontrivial (size ≥ 2) strongly connected components
	LargestSCC     int // member count of the largest SCC (0 when none)
	CollapsedNodes int // nodes living in nontrivial SCCs

	LocalEdges           int // out-direction local edges before condensation
	CondensedLocalEdges  int // after collapse + dedup
	GlobalEdges          int // out-direction global edges before condensation
	CondensedGlobalEdges int
}

// NodeReduction returns the percentage of nodes eliminated by collapse.
func (s CondenseStats) NodeReduction() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return 100 * float64(s.Nodes-s.Reps) / float64(s.Nodes)
}

// LocalEdgeReduction returns the percentage of local edges eliminated.
func (s CondenseStats) LocalEdgeReduction() float64 {
	if s.LocalEdges == 0 {
		return 0
	}
	return 100 * float64(s.LocalEdges-s.CondensedLocalEdges) / float64(s.LocalEdges)
}

// GlobalEdgeReduction returns the percentage of global edges eliminated
// (endpoint remapping can merge parallel edges).
func (s CondenseStats) GlobalEdgeReduction() float64 {
	if s.GlobalEdges == 0 {
		return 0
	}
	return 100 * float64(s.GlobalEdges-s.CondensedGlobalEdges) / float64(s.GlobalEdges)
}

func (s CondenseStats) String() string {
	return fmt.Sprintf("sccs=%d largest=%d collapsed=%d nodes=%d->%d (-%.1f%%) local=%d->%d (-%.1f%%) global=%d->%d (-%.1f%%)",
		s.SCCs, s.LargestSCC, s.CollapsedNodes,
		s.Nodes, s.Reps, s.NodeReduction(),
		s.LocalEdges, s.CondensedLocalEdges, s.LocalEdgeReduction(),
		s.GlobalEdges, s.CondensedGlobalEdges, s.GlobalEdgeReduction())
}

// Condensation returns the condensed overlay, or nil when the graph has
// not been frozen (mutable graphs — the incremental-edit path — are never
// condensed: edits would invalidate the SCC structure).
func (g *Graph) Condensation() *Condensation {
	return g.cond
}

// CondenseStats returns the condensation statistics of a frozen graph
// (the zero value when unfrozen).
func (g *Graph) CondenseStats() CondenseStats {
	if g.cond == nil {
		return CondenseStats{}
	}
	return g.cond.stats
}

// Rep returns the SCC representative of n — n itself outside any assign
// cycle. O(1).
func (c *Condensation) Rep(n NodeID) NodeID {
	if c.rep == nil {
		return n
	}
	return c.rep[n]
}

// Trivial reports whether the graph had no assign cycle at all (the
// overlay then aliases the base layout).
func (c *Condensation) Trivial() bool { return c.rep == nil }

// Stats returns the condensation statistics.
func (c *Condensation) Stats() CondenseStats { return c.stats }

// condense builds the overlay for a freshly frozen graph. Called by
// Freeze with the CSR layout already in place.
func (g *Graph) condense() *Condensation {
	n := len(g.nodes)
	c := &Condensation{}
	c.stats.Nodes = n

	rep, sccStats := g.assignSCCs()
	c.stats.SCCs = sccStats.count
	c.stats.LargestSCC = sccStats.largest
	c.stats.CollapsedNodes = sccStats.collapsed
	c.stats.Reps = n - sccStats.collapsed + sccStats.count

	f := g.frozen
	baseLocal, baseGlobal := 0, 0
	for i := 0; i < n; i++ {
		baseLocal += int(f.outSplit[i] - f.outStart[i])
		baseGlobal += int(f.outStart[i+1] - f.outSplit[i])
	}
	c.stats.LocalEdges = baseLocal
	c.stats.GlobalEdges = baseGlobal

	if sccStats.count == 0 {
		// No cycles: the condensed view IS the base view. Alias it.
		c.c = f
		c.flags = g.flags
		c.stats.CondensedLocalEdges = baseLocal
		c.stats.CondensedGlobalEdges = baseGlobal
		return c
	}
	c.rep = rep

	// Bucket members by representative (counting sort keeps it linear).
	memberCount := make([]int32, n)
	for _, r := range rep {
		memberCount[r]++
	}
	memberStart := make([]int32, n+1)
	for i := 0; i < n; i++ {
		memberStart[i+1] = memberStart[i] + memberCount[i]
	}
	members := make([]NodeID, n)
	fill := make([]int32, n)
	copy(fill, memberStart[:n])
	for i := 0; i < n; i++ {
		r := rep[i]
		members[fill[r]] = NodeID(i)
		fill[r]++
	}

	cc := &csr{
		outStart: make([]int32, n+1),
		outSplit: make([]int32, n),
		inStart:  make([]int32, n+1),
		inSplit:  make([]int32, n),
	}
	flags := make([]nodeFlags, n)
	var locals, globals []Edge

	gather := func(r NodeID, in bool) ([]Edge, []Edge) {
		locals, globals = locals[:0], globals[:0]
		for _, m := range members[memberStart[r]:memberStart[r+1]] {
			var loc, glob []Edge
			if in {
				loc, glob = g.LocalIn(m), g.GlobalIn(m)
			} else {
				loc, glob = g.LocalOut(m), g.GlobalOut(m)
			}
			for _, e := range loc {
				me := Edge{Src: rep[e.Src], Dst: rep[e.Dst], Kind: e.Kind, Label: e.Label}
				if me.Kind == Assign && me.Src == me.Dst {
					continue // collapsed cycle edge: a state-level no-op
				}
				locals = append(locals, me)
			}
			for _, e := range glob {
				globals = append(globals, Edge{Src: rep[e.Src], Dst: rep[e.Dst], Kind: e.Kind, Label: e.Label})
			}
		}
		return dedupEdges(locals), dedupEdges(globals)
	}

	for i := 0; i < n; i++ {
		r := NodeID(i)
		cc.outStart[i] = int32(len(cc.outEdges))
		cc.inStart[i] = int32(len(cc.inEdges))
		if rep[i] != r {
			// Non-representative: empty spans.
			cc.outSplit[i] = cc.outStart[i]
			cc.inSplit[i] = cc.inStart[i]
			continue
		}
		for _, m := range members[memberStart[i]:memberStart[i+1]] {
			flags[i] |= g.flags[m]
		}
		loc, glob := gather(r, false)
		cc.outEdges = append(cc.outEdges, loc...)
		cc.outSplit[i] = int32(len(cc.outEdges))
		cc.outEdges = append(cc.outEdges, glob...)

		loc, glob = gather(r, true)
		cc.inEdges = append(cc.inEdges, loc...)
		cc.inSplit[i] = int32(len(cc.inEdges))
		cc.inEdges = append(cc.inEdges, glob...)
	}
	cc.outStart[n] = int32(len(cc.outEdges))
	cc.inStart[n] = int32(len(cc.inEdges))

	c.c = cc
	c.flags = flags
	for i := 0; i < n; i++ {
		c.stats.CondensedLocalEdges += int(cc.outSplit[i] - cc.outStart[i])
		c.stats.CondensedGlobalEdges += int(cc.outStart[i+1] - cc.outSplit[i])
	}
	return c
}

// dedupEdges sorts es by (Src, Dst, Kind, Label) and removes duplicates
// in place.
func dedupEdges(es []Edge) []Edge {
	if len(es) < 2 {
		return es
	}
	slices.SortFunc(es, func(a, b Edge) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.Label, b.Label)
	})
	return slices.Compact(es)
}

type sccSummary struct {
	count     int // nontrivial SCCs
	largest   int
	collapsed int // members of nontrivial SCCs
}

// assignSCCs runs an iterative Tarjan SCC over the assign subgraph of the
// frozen layout. It returns the representative array (smallest member ID
// per SCC) and summary counts. Nodes without assign edges are their own
// singletons by construction.
func (g *Graph) assignSCCs() ([]NodeID, sccSummary) {
	n := len(g.nodes)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	rep := make([]NodeID, n)
	for i := range rep {
		rep[i] = NodeID(i)
	}

	var (
		next    int32
		stack   []int32 // Tarjan node stack
		summary sccSummary
	)
	type frame struct {
		v  int32
		ei int32 // position within v's local out-span
	}
	var call []frame

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{v: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(call) > 0 {
			fr := &call[len(call)-1]
			v := fr.v
			out := g.LocalOut(NodeID(v))
			advanced := false
			for int(fr.ei) < len(out) {
				e := out[fr.ei]
				fr.ei++
				if e.Kind != Assign {
					continue
				}
				w := int32(e.Dst)
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished: pop its frame, fold lowlink into the parent,
			// and emit an SCC when v is a root.
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				// Pop the SCC; the representative is the smallest NodeID.
				top := len(stack)
				minID := NodeID(v)
				for top > 0 {
					w := stack[top-1]
					top--
					onStack[w] = false
					if NodeID(w) < minID {
						minID = NodeID(w)
					}
					if w == v {
						break
					}
				}
				size := len(stack) - top
				if size > 1 {
					summary.count++
					summary.collapsed += size
					if size > summary.largest {
						summary.largest = size
					}
					for _, w := range stack[top:] {
						rep[w] = minID
					}
				}
				stack = stack[:top]
			}
		}
	}
	return rep, summary
}
