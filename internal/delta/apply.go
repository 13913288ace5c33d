package delta

import (
	"cmp"
	"slices"

	"dynsum/internal/faultinject"
	"dynsum/internal/pag"
)

// This file implements Overlay.Apply — one epoch — plus the statistics and
// the Compact merge.
//
// Apply's cost is O(changed elements + repair blast radius): the nodes of
// redefined methods, the endpoints of added/dropped edges, and — for the
// condensed view — the representatives global-edge-adjacent to dissolved
// SCC members. It never walks the whole graph (the lazy one-time index
// builds in ensureIndexes are the only O(n) work, paid on the first epoch
// and reused by all later ones).

// ApplyStats reports what one epoch did. TouchedMethods is the engine's
// invalidation work list: exactly the pre-existing methods whose cached
// PPTA summaries may have changed (local-edge changes and global-flag
// flips; see the soundness argument in overlay.go / DESIGN.md §10).
type ApplyStats struct {
	Epoch int

	NewMethods       int
	NewCallSites     int
	NewNodes         int
	NewEdges         int // effective (post-dedup) added edges
	DroppedEdges     int
	RedefinedMethods int

	// TouchedMethods lists the pre-existing methods whose summaries must
	// be invalidated, sorted. DependentMethods counts the methods the
	// reverse-dependency sketch marks as global-edge-adjacent to the
	// touched set — the bound a conservative cascading invalidator would
	// use; the summaries' method-locality lets the engine skip them.
	TouchedMethods   []pag.MethodID
	DependentMethods int

	// FlagFlips counts existing nodes whose global-edge frontier flag went
	// from unset to set this epoch (each forces its method onto
	// TouchedMethods).
	FlagFlips int

	// DissolvedSCCs / RebuiltReps describe the local condensation repair.
	DissolvedSCCs int
	RebuiltReps   int

	// OverlayFraction is the overlay's size after this epoch as a fraction
	// of the base graph's edge records — the auto-compaction signal.
	OverlayFraction float64
}

// Stats is the overlay's cumulative state, for pagstat and the harness.
type Stats struct {
	Epochs         int
	PatchedNodes   int // nodes carrying base-view overlay adjacency
	PatchedMethods int // distinct methods containing patched nodes
	AddedMethods   int
	AddedNodes     int
	AddedCallSites int
	OverlayEdges   int // out-direction edge records held by the overlay
	BaseEdges      int // out-direction edge records in the base CSR
	DroppedEdges   int // cumulative
	DissolvedSCCs  int // cumulative
	RebuiltReps    int // cumulative
}

// OverlayFraction returns OverlayEdges/BaseEdges (0 on an empty base).
func (s Stats) OverlayFraction() float64 {
	if s.BaseEdges == 0 {
		return 0
	}
	return float64(s.OverlayEdges) / float64(s.BaseEdges)
}

// Stats returns the overlay's cumulative statistics.
func (o *Overlay) Stats() Stats {
	patched := 0
	for _, p := range o.patchBase {
		if p >= 0 {
			patched++
		}
	}
	return Stats{
		Epochs:         o.epoch,
		PatchedNodes:   patched,
		PatchedMethods: len(o.patchedMethods),
		AddedMethods:   len(o.addedMethods),
		AddedNodes:     len(o.addedNodes),
		AddedCallSites: len(o.addedCallSites),
		OverlayEdges:   o.overlayEdges,
		BaseEdges:      o.g.NumEdges(),
		DroppedEdges:   o.droppedEdges,
		DissolvedSCCs:  o.dissolvedSCCs,
		RebuiltReps:    o.rebuiltReps,
	}
}

// Fraction returns the current overlay fraction (the Compact trigger).
func (o *Overlay) Fraction() float64 {
	if base := o.g.NumEdges(); base > 0 {
		return float64(o.overlayEdges) / float64(base)
	}
	return 0
}

// staged is the read-only plan one epoch compiles to: everything Apply's
// commit phase installs, computed against the pre-epoch overlay without
// mutating a single field. If Apply aborts anywhere up to (and including)
// the stage→commit boundary — the OverlayApply injection point — the
// overlay is exactly its pre-epoch self and the log is still applicable.
type staged struct {
	preMethods, preNodes int

	dropped map[pag.Edge]bool
	added   []pag.Edge

	touched      map[pag.MethodID]bool
	flipped      int
	methodLinks  [][2]pag.MethodID
	localMethods map[pag.MethodID]bool

	// dissolve is the condensation-repair plan: each entry names a
	// surviving SCC to dissolve into singletons.
	dissolve []dissolvePlan

	patch    map[pag.NodeID]bool
	addedOut map[pag.NodeID][]pag.Edge
	addedIn  map[pag.NodeID][]pag.Edge
}

type dissolvePlan struct {
	rep     pag.NodeID
	members []pag.NodeID
}

// Apply advances the overlay by one epoch with the changes recorded in l.
// It validates the whole log first — a rejected log leaves the overlay
// untouched — then runs in two phases (DESIGN.md §12): stage computes the
// epoch's entire effect read-only (dropped and effective added edges, the
// invalidation work list, the dissolution and patch plans), and commit
// installs it. The OverlayApply fault-injection point sits exactly on the
// boundary, so a fault there proves the atomicity claim: nothing staged,
// nothing lost. The log is consumed by a successful Apply and left
// reusable by any pre-commit abort.
//
// Apply is a mutator: quiesce all engines reading the overlay first, as
// for ResetCache and the other engine mutators.
func (o *Overlay) Apply(l *Log) (ApplyStats, error) {
	o.ensureIndexes()
	if err := l.validate(o); err != nil {
		return ApplyStats{}, err
	}
	st := o.stage(l)
	faultinject.Fire(faultinject.OverlayApply)
	return o.commit(l, st), nil
}

// Broken reports that a commit phase started and did not finish: an
// abort (panic) landed mid-mutation and the overlay's state is not
// trustworthy. Recovery boundaries consult it to distinguish clean
// pre-commit aborts (convert to an error, keep serving) from genuine
// mid-commit corruption (propagate).
func (o *Overlay) Broken() bool { return o.committing }

// stage compiles the log into the epoch's plan without mutating the
// overlay. Log-added elements are not registered yet, so their metadata
// is resolved straight from the log where needed.
func (o *Overlay) stage(l *Log) staged {
	st := staged{
		preMethods:   l.baseMethods,
		preNodes:     l.baseNodes,
		dropped:      make(map[pag.Edge]bool),
		touched:      make(map[pag.MethodID]bool),
		localMethods: make(map[pag.MethodID]bool),
		patch:        make(map[pag.NodeID]bool),
		addedOut:     make(map[pag.NodeID][]pag.Edge),
		addedIn:      make(map[pag.NodeID][]pag.Edge),
	}
	preNodes := st.preNodes

	// nodeMethod over the pre-epoch tables plus the log's own records —
	// the staged equivalent of Overlay.nodeMethod once commit extends the
	// tables.
	nodeMethod := func(n pag.NodeID) pag.MethodID {
		if int(n) >= preNodes {
			return l.nodes[int(n)-preNodes].Method
		}
		return o.nodeMethod(n)
	}

	// Dropped edges: everything owned by a redefined method. The
	// pre-epoch methodNodes index is complete for them — validate
	// guarantees redefined methods pre-exist, and the log's own nodes
	// carry no base edges. Staging writes nothing, so the published view
	// serves throughout.
	bv := o.baseView
	for _, m := range l.redefined {
		for _, n := range o.methodNodes[m] {
			for _, sp := range [4][]pag.Edge{bv.LocalOut(n), bv.GlobalOut(n), bv.LocalIn(n), bv.GlobalIn(n)} {
				for _, e := range sp {
					if o.ownerMethod(e) == m {
						st.dropped[e] = true
					}
				}
			}
		}
	}

	// Effective added edges: dedup within the log and against edges that
	// are present and surviving. A log edge identical to a dropped one is
	// a genuine re-add. An edge out of a log-added node cannot pre-exist.
	logSeen := make(map[pag.Edge]bool, len(l.edges))
	for _, e := range l.edges {
		if logSeen[e] {
			continue
		}
		logSeen[e] = true
		if !st.dropped[e] && int(e.Src) < preNodes && hasEdge(bv, e) {
			continue
		}
		if st.dropped[e] {
			delete(st.dropped, e) // re-added by the new body: net no-op
			continue
		}
		st.added = append(st.added, e)
	}

	// Invalidation: computed against the PRE-epoch state (which staging
	// guarantees by construction — nothing has been rebuilt), so flag
	// flips are detected exactly.
	for _, m := range l.redefined {
		st.touched[m] = true
	}
	flipped := make(map[pag.NodeID]bool)
	markTouched := func(m pag.MethodID) {
		if m != pag.NoMethod && int(m) < st.preMethods {
			st.touched[m] = true
		}
	}
	for _, e := range st.added {
		if e.Kind.IsLocal() {
			markTouched(nodeMethod(e.Src))
			continue
		}
		// The flag checks read the pre-rebuild state, so several edges
		// into one node all see the flip; flipped dedups the count per
		// node (markTouched is idempotent anyway).
		if int(e.Src) < preNodes && !bv.HasGlobalOut(e.Src) {
			flipped[e.Src] = true
			markTouched(nodeMethod(e.Src))
		}
		if int(e.Dst) < preNodes && !bv.HasGlobalIn(e.Dst) {
			flipped[e.Dst] = true
			markTouched(nodeMethod(e.Dst))
		}
		if o.methodNbrs != nil {
			ms, md := nodeMethod(e.Src), nodeMethod(e.Dst)
			if ms != pag.NoMethod && md != pag.NoMethod && ms != md {
				st.methodLinks = append(st.methodLinks, [2]pag.MethodID{ms, md})
			}
		}
	}
	st.flipped = len(flipped)

	// Dissolution plan: methods whose local edges changed lose their SCC
	// collapse — a changed body voids the freeze-time cycle proof, so
	// their nodes fall back to singleton representatives. Log-added
	// methods have no index entry yet (and no groups); log-added nodes of
	// redefined methods are singletons by construction. Both contribute
	// nothing, exactly as they would post-registration.
	for _, m := range l.redefined {
		st.localMethods[m] = true
	}
	for _, e := range st.added {
		if e.Kind.IsLocal() {
			if m := nodeMethod(e.Src); m != pag.NoMethod {
				st.localMethods[m] = true
			}
		}
	}
	if !o.trivial {
		planned := make(map[pag.NodeID]bool)
		for _, m := range sortedMethods(st.localMethods) {
			if int(m) >= len(o.methodNodes) {
				continue
			}
			for _, n := range o.methodNodes[m] {
				r := o.rep[n]
				if planned[r] {
					continue
				}
				members, ok := o.groups[r]
				if !ok {
					continue
				}
				planned[r] = true
				st.dissolve = append(st.dissolve, dissolvePlan{rep: r, members: members})
			}
		}
	}

	// Base-view patch set: endpoints of every changed edge plus every
	// added node (their adjacency exists only in the overlay).
	for e := range st.dropped {
		st.patch[e.Src] = true
		st.patch[e.Dst] = true
	}
	for _, e := range st.added {
		st.patch[e.Src] = true
		st.patch[e.Dst] = true
		st.addedOut[e.Src] = append(st.addedOut[e.Src], e)
		st.addedIn[e.Dst] = append(st.addedIn[e.Dst], e)
	}
	for i := range l.nodes {
		st.patch[pag.NodeID(preNodes+i)] = true
	}
	return st
}

// commit installs a staged epoch. From its first mutation to its last it
// holds o.committing, so an abort inside it is detectable as genuine
// corruption (Broken); everything fallible about the epoch already
// happened during staging.
func (o *Overlay) commit(l *Log, st staged) ApplyStats {
	o.committing = true
	preNodes := st.preNodes

	// 1. Metadata: methods, call sites and node records join the
	// overlay's side tables; the base graph is never written.
	for _, m := range l.methods {
		o.addedMethods = append(o.addedMethods, m)
		o.methodNodes = append(o.methodNodes, nil)
	}
	o.addedCallSites = append(o.addedCallSites, l.callSites...)
	// Added nodes join both views patched with empty adjacency (the base
	// CSR does not cover them); step 4/5 fill in their edges.
	for i, nd := range l.nodes {
		id := pag.NodeID(preNodes + i)
		o.addedNodes = append(o.addedNodes, nd)
		o.patchBase = append(o.patchBase, int32(len(o.baseAdj)))
		o.baseAdj = append(o.baseAdj, pag.NodeAdj{})
		if o.rep != nil {
			o.patchCond = append(o.patchCond, int32(len(o.condAdj)))
			o.condAdj = append(o.condAdj, pag.NodeAdj{})
			o.rep = append(o.rep, id)
		}
		if nd.Method != pag.NoMethod {
			o.methodNodes[nd.Method] = append(o.methodNodes[nd.Method], id)
		}
	}

	// 2. Reverse-dependency sketch links for the epoch's global edges.
	for _, lk := range st.methodLinks {
		o.linkMethods(lk[0], lk[1])
	}

	// 3. Condensation repair, part 1: dissolve the planned SCCs.
	var dissolved []pag.NodeID
	for _, p := range st.dissolve {
		for _, mb := range p.members {
			o.rep[mb] = mb
		}
		dissolved = append(dissolved, p.members...)
		delete(o.groups, p.rep)
	}
	o.dissolvedSCCs += len(st.dissolve)

	// 4. Base-view rebuild of the patch set. One view, taken after the
	// added nodes joined, serves the loop: each node is rebuilt once and
	// reads only its own adjacency, which no earlier rebuild changed.
	bv := o.liveBase()
	for _, n := range sortedNodes(st.patch) {
		o.rebuildBase(bv, n, st.dropped, st.addedOut[n], st.addedIn[n])
	}

	// 5. Condensation repair, part 2: rebuild the condensed spans whose
	// contents this epoch invalidated — the repaired representatives of
	// every patched node and every node of a local-change method, plus
	// the representatives global-edge-adjacent to dissolved members
	// (their freeze-time spans name the old representatives).
	rebuilt := 0
	if !o.trivial {
		condSet := make(map[pag.NodeID]bool)
		for n := range st.patch {
			condSet[o.rep[n]] = true
		}
		for m := range st.localMethods {
			if m == pag.NoMethod || int(m) >= len(o.methodNodes) {
				continue
			}
			for _, n := range o.methodNodes[m] {
				condSet[o.rep[n]] = true
			}
		}
		bv := o.liveBase() // step 4's result; this step writes only condensed tables
		for _, d := range dissolved {
			for _, e := range bv.GlobalOut(d) {
				condSet[o.rep[e.Dst]] = true
			}
			for _, e := range bv.GlobalIn(d) {
				condSet[o.rep[e.Src]] = true
			}
			// Local neighbours live in the same (dissolved) method and are
			// already in condSet via the localMethods loop.
		}
		for _, r := range sortedNodes(condSet) {
			o.rebuildCond(bv, r)
		}
		rebuilt = len(condSet)
		o.rebuiltReps += rebuilt
	}

	// 6. Bookkeeping and the epoch's report.
	o.droppedEdges += len(st.dropped)
	for n := range st.patch {
		if m := o.nodeMethod(n); m != pag.NoMethod {
			o.patchedMethods[m] = true
		}
	}
	o.epoch++
	o.publish()

	stats := ApplyStats{
		Epoch:            o.epoch,
		NewMethods:       len(l.methods),
		NewCallSites:     len(l.callSites),
		NewNodes:         len(l.nodes),
		NewEdges:         len(st.added),
		DroppedEdges:     len(st.dropped),
		RedefinedMethods: len(l.redefined),
		TouchedMethods:   sortedMethods(st.touched),
		FlagFlips:        st.flipped,
		DissolvedSCCs:    len(st.dissolve),
		RebuiltReps:      rebuilt,
		OverlayFraction:  o.Fraction(),
	}
	// The sketch bound: methods adjacent (over global edges) to the
	// touched set that a cascading invalidator would also have dropped.
	deps := make(map[pag.MethodID]bool)
	for _, m := range stats.TouchedMethods {
		for nb := range o.methodNbrs[m] {
			if !st.touched[nb] {
				deps[nb] = true
			}
		}
	}
	stats.DependentMethods = len(deps)
	o.committing = false
	return stats
}

// rebuildBase installs n's base-view replacement adjacency: its edges in
// bv minus dropped plus the epoch's additions, partition preserved. Order is
// deterministic: surviving edges keep their relative order, added edges
// append in log order within their partition half.
func (o *Overlay) rebuildBase(bv *pag.View, n pag.NodeID, dropped map[pag.Edge]bool, addOut, addIn []pag.Edge) {
	build := func(localCur, globalCur, adds []pag.Edge) (edges []pag.Edge, split int32) {
		for _, e := range localCur {
			if !dropped[e] {
				edges = append(edges, e)
			}
		}
		for _, e := range adds {
			if e.Kind.IsLocal() {
				edges = append(edges, e)
			}
		}
		split = int32(len(edges))
		for _, e := range globalCur {
			if !dropped[e] {
				edges = append(edges, e)
			}
		}
		for _, e := range adds {
			if e.Kind.IsGlobal() {
				edges = append(edges, e)
			}
		}
		return edges, split
	}
	var a pag.NodeAdj
	a.Out, a.OutSplit = build(bv.LocalOut(n), bv.GlobalOut(n), addOut)
	a.In, a.InSplit = build(bv.LocalIn(n), bv.GlobalIn(n), addIn)

	if p := o.patchBase[n]; p >= 0 {
		o.overlayEdges += len(a.Out) - len(o.baseAdj[p].Out)
		o.baseAdj[p] = a
		return
	}
	o.patchBase[n] = int32(len(o.baseAdj))
	o.baseAdj = append(o.baseAdj, a)
	o.overlayEdges += len(a.Out)
}

// rebuildCond installs representative r's condensed-view adjacency: the
// union of its surviving members' edges in the base view bv with endpoints
// mapped through the repaired rep function, intra-SCC assign self-loops
// removed and duplicates merged — exactly the freeze-time gather, run on
// one representative.
func (o *Overlay) rebuildCond(bv *pag.View, r pag.NodeID) {
	members := o.groups[r]
	if members == nil {
		members = []pag.NodeID{r}
	}
	mapEdge := func(e pag.Edge) pag.Edge {
		return pag.Edge{Src: o.rep[e.Src], Dst: o.rep[e.Dst], Kind: e.Kind, Label: e.Label}
	}
	gather := func(in bool) (edges []pag.Edge, split int32) {
		var locals, globals []pag.Edge
		for _, mb := range members {
			loc, glob := bv.LocalOut(mb), bv.GlobalOut(mb)
			if in {
				loc, glob = bv.LocalIn(mb), bv.GlobalIn(mb)
			}
			for _, e := range loc {
				me := mapEdge(e)
				if me.Kind == pag.Assign && me.Src == me.Dst {
					continue // collapsed cycle edge: a state-level no-op
				}
				locals = append(locals, me)
			}
			for _, e := range glob {
				globals = append(globals, mapEdge(e))
			}
		}
		locals = dedupEdges(locals)
		globals = dedupEdges(globals)
		edges = append(locals, globals...)
		return edges, int32(len(locals))
	}
	var a pag.NodeAdj
	a.Out, a.OutSplit = gather(false)
	a.In, a.InSplit = gather(true)

	if p := o.patchCond[r]; p >= 0 {
		o.condAdj[p] = a
		return
	}
	o.patchCond[r] = int32(len(o.condAdj))
	o.condAdj = append(o.condAdj, a)
}

// Compact merges the overlay into a fresh, fully re-frozen (and
// re-condensed) Graph carrying identical node/method/call-site IDs, so
// cached query variables and result sets remain meaningful. The overlay
// itself is left untouched; callers (the engine's auto-compaction) swap
// the graph in and drop the overlay — and must also drop the summary
// cache, because the fresh condensation may choose different
// representatives.
func (o *Overlay) Compact() (*pag.Graph, error) {
	g := o.g
	ng := pag.NewGraph()
	for c := 0; c < g.NumClasses(); c++ {
		ci := g.ClassInfo(pag.ClassID(c))
		ng.AddClass(ci.Name, ci.Parent)
	}
	for f := 0; f < g.NumFields(); f++ {
		ng.AddField(g.FieldName(pag.FieldID(f)))
	}
	for m := 0; m < o.NumMethods(); m++ {
		mi := o.MethodInfo(pag.MethodID(m))
		ng.AddMethod(mi.Name, mi.Class)
	}
	for cs := 0; cs < o.NumCallSites(); cs++ {
		info := o.CallSiteInfo(pag.CallSiteID(cs))
		id := ng.AddCallSite(info.Caller, info.Name)
		for _, t := range info.Targets {
			ng.AddCallTarget(id, t)
		}
	}
	total := o.NumNodes()
	for n := 0; n < total; n++ {
		nd := o.Node(pag.NodeID(n))
		ng.AddNode(nd.Kind, nd.Method, nd.Class, nd.Name)
	}
	// Crash-consistency probe: the rebuild so far has only touched ng —
	// the overlay and its base graph are read-only throughout Compact, so
	// an abort here (or anywhere else in the rebuild) must leave the
	// pre-compaction engine fully usable.
	faultinject.Fire(faultinject.CompactRebuild)
	bv := o.BaseView()
	for n := 0; n < total; n++ {
		for _, e := range bv.LocalOut(pag.NodeID(n)) {
			ng.AddEdge(e)
		}
		for _, e := range bv.GlobalOut(pag.NodeID(n)) {
			ng.AddEdge(e)
		}
	}
	// The rebuild preserves method and node IDs, so the open-world
	// bodyless-method table transfers verbatim.
	if err := ng.AdoptBodyless(g); err != nil {
		return nil, err
	}
	ng.ResolveDerived()
	if err := ng.Validate(); err != nil {
		return nil, err
	}
	ng.Freeze()
	return ng, nil
}

// dedupEdges sorts es by (Src, Dst, Kind, Label) and removes duplicates in
// place (the freeze-time condensation's helper, local to this package).
func dedupEdges(es []pag.Edge) []pag.Edge {
	if len(es) < 2 {
		return es
	}
	slices.SortFunc(es, func(a, b pag.Edge) int {
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

func sortedNodes(set map[pag.NodeID]bool) []pag.NodeID {
	out := make([]pag.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func sortedMethods(set map[pag.MethodID]bool) []pag.MethodID {
	out := make([]pag.MethodID, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}
