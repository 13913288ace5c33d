package delta

import (
	"fmt"
	"slices"

	"dynsum/internal/pag"
)

// This file implements the epoch overlay itself: the mutable view a frozen
// PAG evolves through.
//
// Representation. The base graph's CSR arrays are never touched. A node
// whose adjacency an epoch changes — an endpoint of an added or dropped
// edge, or a node added by the epoch — becomes *patched*: it gets a
// per-node replacement adjacency (its current edges minus drops plus adds,
// still partitioned local-first/global-last), and a dense patch table maps
// node IDs to these entries with -1 for the untouched majority. An
// adjacency read is therefore one array load and one predictable branch
// away from the base layout: the overlay publishes each view as a
// pag.View over the frozen arrays plus its patch table, and the engines
// read nothing else.
//
// Two views are maintained, mirroring the two adjacency modes the engines
// run in (BaseView and CondView):
//
//   - the base view: true node endpoints, used when condensation is
//     disabled;
//   - the condensed view: endpoints mapped through the *repaired*
//     representative function. Methods whose local edges change have their
//     assign SCCs dissolved into singletons (a changed body voids the
//     cycle proof), while untouched SCCs keep their representatives — and
//     therefore their representative-keyed shared summaries. Repair is
//     local: only the dissolved methods' nodes, the endpoints of changed
//     edges, and the representatives global-edge-adjacent to dissolved
//     members get rebuilt condensed spans; everything else keeps reading
//     the freeze-time condensation.
//
// The overlay is fully self-contained: added node, method and call-site
// records live in overlay-side tables (resolved through Overlay.Node /
// MethodInfo / CallSiteInfo) and the base graph is never written. Several
// engines can therefore evolve independent overlays over one shared frozen
// base, and dropping an overlay rolls its epochs back for free.
//
// Soundness of the invalidation contract (the TouchedMethods an Apply
// returns): a cached PPTA summary is the closure of one state over local
// edges, which never leave the state's method, plus the global-edge flags
// of the visited nodes, which gate frontier membership. A summary can
// therefore only be invalidated by (a) a local-edge change in its method
// or (b) a global-edge flag flipping on one of its method's nodes — both
// are reported as touched. Everything else a wave does (new methods, new
// global edges between already-flagged nodes) leaves every cached closure
// exact, because the driver expands frontier states over the live global
// spans on every query. DESIGN.md §10 spells the argument out.

// DefaultCompactFraction is the overlay-size trigger engines use for
// automatic compaction: once the overlay holds more than this fraction of
// the base graph's edge records, the indirection (and the dissolved
// condensation) has eaten enough of the frozen layout's advantage that a
// full re-freeze pays for itself.
const DefaultCompactFraction = 0.5

// Overlay is the epoch-stamped delta view over one frozen Graph. It is
// not safe for concurrent mutation: Apply and Compact require the same
// quiescence as every other engine mutator (no queries in flight).
// Concurrent reads between epochs are safe.
type Overlay struct {
	g       *pag.Graph
	cond    *pag.Condensation
	trivial bool // base condensation has no nontrivial SCC: the views coincide

	baseNodes     int
	baseMethods   int
	baseCallSites int
	epoch         int

	addedNodes     []pag.Node
	addedMethods   []pag.Method
	addedCallSites []pag.CallSite

	// patchBase/patchCond index the per-view patched adjacency; -1 means
	// the node reads the base (respectively freeze-time condensed) spans.
	// Both are nil until the first epoch, so an overlay costs O(1) until
	// it is used; from then on they cover every node, added ones included
	// (an added node is patched, with empty adjacency, the moment it joins).
	patchBase []int32
	patchCond []int32
	baseAdj   []pag.NodeAdj
	condAdj   []pag.NodeAdj

	// rep is the repaired representative array (condensed view), covering
	// every node; nil until the first epoch on a nontrivially-condensed
	// base (reads fall through to the freeze-time condensation).
	rep []pag.NodeID
	// groups holds the surviving nontrivial SCCs: representative → sorted
	// members (representative included). Dissolved groups are removed.
	groups map[pag.NodeID][]pag.NodeID

	// methodNodes indexes every method's nodes (built on first Apply,
	// extended incrementally); the unit of redefinition and invalidation.
	methodNodes [][]pag.NodeID

	// methodNbrs is the reverse-dependency sketch: for each method, the
	// set of methods sharing a global edge with it. It bounds the set of
	// methods that could in principle depend on a touched method — the
	// ApplyStats report invalidated-vs-dependent against it, making the
	// "no cascade needed" argument measurable.
	methodNbrs map[pag.MethodID]map[pag.MethodID]bool

	patchedMethods map[pag.MethodID]bool

	overlayEdges  int // out-direction edge records across baseAdj
	droppedEdges  int // cumulative
	dissolvedSCCs int // cumulative
	rebuiltReps   int // cumulative

	// baseView/condView are the current epoch's published views, rebuilt
	// by NewOverlay and at the end of every commit (see publish).
	baseView, condView *pag.View

	// committing is held across Apply's commit phase: true means an epoch
	// is (or was, if an abort escaped) mid-installation and the overlay's
	// invariants cannot be trusted. See Broken.
	committing bool
}

// NewOverlay starts an empty overlay (epoch 0) over a frozen graph. It is
// O(1): the per-node tables are built by the first Apply.
func NewOverlay(g *pag.Graph) (*Overlay, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("delta: overlay requires a frozen graph; call Graph.Freeze (or Builder.Finish) first")
	}
	cond := g.Condensation()
	o := &Overlay{
		g:              g,
		cond:           cond,
		trivial:        cond == nil || cond.Trivial(),
		baseNodes:      g.NumNodes(),
		baseMethods:    g.NumMethods(),
		baseCallSites:  g.NumCallSites(),
		patchedMethods: make(map[pag.MethodID]bool),
	}
	o.publish()
	return o, nil
}

func makeNegative(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// Graph returns the frozen base graph.
func (o *Overlay) Graph() *pag.Graph { return o.g }

// Epoch returns the number of applied epochs.
func (o *Overlay) Epoch() int { return o.epoch }

// NewLog starts a change log positioned at the overlay's current counts.
func (o *Overlay) NewLog() *Log {
	return NewLog(o.NumMethods(), o.NumNodes(), o.NumCallSites())
}

// NumNodes returns the total node count, added nodes included.
func (o *Overlay) NumNodes() int { return o.baseNodes + len(o.addedNodes) }

// NumMethods returns the total method count, added methods included.
func (o *Overlay) NumMethods() int { return o.baseMethods + len(o.addedMethods) }

// NumCallSites returns the total call-site count, added sites included.
func (o *Overlay) NumCallSites() int { return o.baseCallSites + len(o.addedCallSites) }

// MethodInfo returns method metadata, resolving added methods from the
// overlay.
func (o *Overlay) MethodInfo(m pag.MethodID) pag.Method {
	if int(m) < o.baseMethods {
		return o.g.MethodInfo(m)
	}
	return o.addedMethods[int(m)-o.baseMethods]
}

// CallSiteInfo returns call-site metadata, resolving added sites from the
// overlay.
func (o *Overlay) CallSiteInfo(cs pag.CallSiteID) pag.CallSite {
	if int(cs) < o.baseCallSites {
		return o.g.CallSiteInfo(cs)
	}
	return o.addedCallSites[int(cs)-o.baseCallSites]
}

// Node returns node metadata, resolving added nodes from the overlay.
func (o *Overlay) Node(n pag.NodeID) pag.Node {
	if int(n) < o.baseNodes {
		return o.g.Node(n)
	}
	return o.addedNodes[int(n)-o.baseNodes]
}

// NodeString renders n like Graph.NodeString, added nodes included.
func (o *Overlay) NodeString(n pag.NodeID) string {
	if int(n) < o.baseNodes {
		return o.g.NodeString(n)
	}
	nd := o.addedNodes[int(n)-o.baseNodes]
	if nd.Method != pag.NoMethod {
		return o.MethodInfo(nd.Method).Name + "." + nd.Name
	}
	return nd.Name
}

// IsNullObject reports whether n is a null object, added nodes included.
func (o *Overlay) IsNullObject(n pag.NodeID) bool {
	if int(n) < o.baseNodes {
		return o.g.IsNullObject(n)
	}
	nd := o.addedNodes[int(n)-o.baseNodes]
	nc := o.g.NullClassID()
	return nd.Kind == pag.Object && nc != pag.NoClass && nd.Class == nc
}

// BaseView returns the current epoch's base adjacency: true node
// endpoints, the frozen CSR spans with the patched nodes' replacements.
func (o *Overlay) BaseView() *pag.View { return o.baseView }

// CondView returns the current epoch's condensed adjacency: endpoints
// mapped through the repaired representative function, the freeze-time
// condensed spans with the repaired representatives' replacements. Over a
// trivially-condensed base it is the base view.
func (o *Overlay) CondView() *pag.View { return o.condView }

// publish builds the views BaseView and CondView hand out for the current
// epoch.
func (o *Overlay) publish() {
	o.baseView = o.liveBase()
	switch {
	case o.trivial:
		o.condView = o.baseView
	case o.rep == nil: // epoch 0: the freeze-time condensation as is
		o.condView = o.cond.View()
	default:
		o.condView = o.cond.View().Patched(o.rep, o.patchCond, o.condAdj)
	}
}

// liveBase returns a base view over the patch tables as they stand. A
// commit takes one wherever the tables may have grown since the last.
func (o *Overlay) liveBase() *pag.View {
	return o.g.View().Patched(nil, o.patchBase, o.baseAdj)
}

// nodeMethod returns the enclosing method of n (NoMethod for globals).
func (o *Overlay) nodeMethod(n pag.NodeID) pag.MethodID { return o.Node(n).Method }

// ownerMethod attributes an edge to the method whose body contains the
// statement: local edges to their (common) endpoint method, entry edges
// to the caller (the actual's method), exit edges to the caller (the
// lhs's method), assignglobal edges to the non-global side. Edges between
// two globals belong to no method and are never dropped by redefinition.
func (o *Overlay) ownerMethod(e pag.Edge) pag.MethodID {
	switch e.Kind {
	case pag.Entry:
		return o.nodeMethod(e.Src)
	case pag.Exit:
		return o.nodeMethod(e.Dst)
	case pag.AssignGlobal:
		if m := o.nodeMethod(e.Src); m != pag.NoMethod {
			return m
		}
		return o.nodeMethod(e.Dst)
	default: // new/assign/load/store: both endpoints share the method
		return o.nodeMethod(e.Src)
	}
}

// hasEdge reports whether e exists in the base view bv.
func hasEdge(bv *pag.View, e pag.Edge) bool {
	sp := bv.GlobalOut(e.Src)
	if e.Kind.IsLocal() {
		sp = bv.LocalOut(e.Src)
	}
	for _, have := range sp {
		if have == e {
			return true
		}
	}
	return false
}

// ensureIndexes lazily builds the O(n) structures the first Apply needs:
// the patch tables, the method→nodes index, the surviving-SCC group table
// and repaired rep array (nontrivial condensations only), and the
// reverse-dependency sketch.
func (o *Overlay) ensureIndexes() {
	if o.patchBase == nil {
		o.patchBase = makeNegative(o.NumNodes())
		if !o.trivial {
			o.patchCond = makeNegative(o.NumNodes())
		}
	}
	if o.methodNodes == nil {
		o.methodNodes = make([][]pag.NodeID, o.NumMethods())
		for n := 0; n < o.baseNodes; n++ {
			if m := o.g.Node(pag.NodeID(n)).Method; m != pag.NoMethod {
				o.methodNodes[m] = append(o.methodNodes[m], pag.NodeID(n))
			}
		}
	}
	if !o.trivial && o.rep == nil {
		o.rep = make([]pag.NodeID, o.baseNodes)
		o.groups = make(map[pag.NodeID][]pag.NodeID)
		for n := 0; n < o.baseNodes; n++ {
			r := o.cond.Rep(pag.NodeID(n))
			o.rep[n] = r
			if r != pag.NodeID(n) {
				o.groups[r] = append(o.groups[r], pag.NodeID(n))
			}
		}
		for r, members := range o.groups {
			members = append(members, r)
			slices.Sort(members)
			o.groups[r] = members
		}
	}
	if o.methodNbrs == nil {
		o.methodNbrs = make(map[pag.MethodID]map[pag.MethodID]bool)
		for n := 0; n < o.baseNodes; n++ {
			ms := o.g.Node(pag.NodeID(n)).Method
			if ms == pag.NoMethod {
				continue
			}
			for _, e := range o.g.GlobalOut(pag.NodeID(n)) {
				if md := o.g.Node(e.Dst).Method; md != pag.NoMethod && md != ms {
					o.linkMethods(ms, md)
				}
			}
		}
	}
}

func (o *Overlay) linkMethods(a, b pag.MethodID) {
	if o.methodNbrs[a] == nil {
		o.methodNbrs[a] = make(map[pag.MethodID]bool, 4)
	}
	if o.methodNbrs[b] == nil {
		o.methodNbrs[b] = make(map[pag.MethodID]bool, 4)
	}
	o.methodNbrs[a][b] = true
	o.methodNbrs[b][a] = true
}
