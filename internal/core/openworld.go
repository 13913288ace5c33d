package core

import (
	"errors"
	"fmt"

	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file implements the engine half of the open-world model (DESIGN.md
// §15): sound demand-driven answers on graphs whose bodyless methods
// (pag.MarkBodyless) stand in for missing code.
//
// The model is a Summarize-level interception. A bodyless method has no
// local edges, so under the closed-world engine its boundary nodes would
// summarise to the identity frontier — silently assuming the missing body
// moves no values, which is unsound. With open-world enabled, any PPTA
// state whose node lies in an actively-bodyless method is answered by the
// method's *blended summary* instead (the PIP-style parameterised summary):
//
//   - Objects: the method's blob object — the stand-in for everything the
//     unknown body could allocate ("per-callsite" through context-
//     sensitivity: the driver tags it with the querying tuple's context).
//   - Frontier: every node of the method that touches a global edge, with
//     the wildcard field stack ⊤ (intstack.Wild) in each direction the
//     driver can expand. ⊤ is what makes the continuation sound: the
//     unknown body may perform any sequence of loads and stores before the
//     value escapes, so the escaping state must simulate every concrete
//     field stack — which ⊤ does exactly (see the helpers in ppta.go).
//
// Because bodyless nodes have no local edges they are always their own SCC
// representatives, so one model serves the condensed and base adjacencies
// alike, and the blended results are shared read-only across queries —
// the hook costs one nil-check on closed-world engines and one map lookup
// on open-world ones, preserving the zero-allocation warm path.
//
// Specs (internal/openworld) are the precise alternative: spec lines lower
// to ordinary PAG edges over the method's recorded boundary and blob nodes,
// installed pre-freeze or through a delta epoch (ApplySpecs). A spec'd
// method leaves the active set — its summaries are then *computed* by the
// regular PPTA over the spec edges and cached, invalidated and evolved
// exactly like any other summary, which is what keeps per-method invalidation and
// delta evolution composing unchanged.

// OpenWorldPolicy selects how queries treat bodyless methods without specs.
type OpenWorldPolicy int32

const (
	// PolicyBlended answers each bodyless method with its own blended
	// summary: blob object plus ⊤-frontier over the method's boundary.
	PolicyBlended OpenWorldPolicy = iota
	// PolicyPessimistic answers every bodyless method with the union of
	// all blended summaries plus a ⊤-frontier over every global variable:
	// unknown code is assumed to exchange values with any other unknown
	// code and any static. Maximally conservative, maximally imprecise.
	PolicyPessimistic
	// PolicySpecOnly refuses blended approximation: reaching a bodyless
	// method without an installed spec fails the query with *NoSpecError.
	PolicySpecOnly
)

func (p OpenWorldPolicy) String() string {
	switch p {
	case PolicyBlended:
		return "blended"
	case PolicyPessimistic:
		return "pessimistic"
	case PolicySpecOnly:
		return "speconly"
	}
	return fmt.Sprintf("OpenWorldPolicy(%d)", int32(p))
}

// NoSpecError is returned (wrapped in the query error) when a
// PolicySpecOnly traversal reaches a bodyless method that has no installed
// spec. The partial points-to set accumulated so far is NOT sound — the
// caller must treat the query as unanswered.
type NoSpecError struct {
	Method pag.MethodID
	Name   string
}

func (e *NoSpecError) Error() string {
	return fmt.Sprintf("core: open-world query reached bodyless method %s (id %d) with no installed spec", e.Name, e.Method)
}

// owModel is the engine's open-world state, rebuilt by refreshOpenWorld
// under the engine's usual mutator quiescence contract and read lock-free
// by queries.
type owModel struct {
	policy OpenWorldPolicy
	// specd holds the methods whose exact spec edges are installed; they
	// are excluded from blended treatment under every policy.
	specd map[pag.MethodID]bool
	// active maps each still-bodyless, unspec'd method to its shared
	// blended summary (read-only once published).
	active map[pag.MethodID]*pptaResult
	// pess is the one shared pessimistic summary; nil unless the policy is
	// PolicyPessimistic.
	pess *pptaResult
}

// ErrOpenWorldDisabled is returned by ApplySpecs before EnableOpenWorld.
var ErrOpenWorldDisabled = errors.New("core: open world not enabled on this engine")

// EnableOpenWorld switches the engine into open-world mode under the given
// policy. specd names methods whose exact spec edges were already installed
// pre-freeze (internal/openworld.Resolve); specs installed later go through
// ApplySpecs. A mutator: quiesce the engine first.
func (d *DynSum) EnableOpenWorld(policy OpenWorldPolicy, specd ...pag.MethodID) {
	ow := &owModel{policy: policy, specd: make(map[pag.MethodID]bool, len(specd))}
	for _, m := range specd {
		ow.specd[m] = true
	}
	d.ow = ow
	d.refreshOpenWorld()
}

// OpenWorldEnabled reports whether the engine runs in open-world mode.
func (d *DynSum) OpenWorldEnabled() bool { return d.ow != nil }

// OpenWorldActive returns the methods currently served by blended
// summaries: marked bodyless, no spec installed, no body arrived by delta.
// Sorted ascending; nil on closed-world engines.
func (d *DynSum) OpenWorldActive() []pag.MethodID {
	if d.ow == nil {
		return nil
	}
	var out []pag.MethodID
	for _, m := range d.g.BodylessMethods() { // sorted source order
		if _, ok := d.ow.active[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// ApplySpecs installs resolved spec edges (internal/openworld.Resolve) as
// one delta epoch and records which methods are now exactly spec'd, then
// refreshes the model: spec'd methods drop out of blended treatment and
// their summaries are computed — and cached, invalidated, evolved — by the
// ordinary machinery from here on. A mutator: quiesce first.
func (d *DynSum) ApplySpecs(edges []pag.Edge, exact []pag.MethodID) (DeltaResult, error) {
	if d.ow == nil {
		return DeltaResult{}, ErrOpenWorldDisabled
	}
	var res DeltaResult
	if len(edges) > 0 {
		log, err := d.NewDeltaLog()
		if err != nil {
			return DeltaResult{}, err
		}
		for _, e := range edges {
			log.AddEdge(e)
		}
		if res, err = d.ApplyDelta(log); err != nil {
			return res, err
		}
	}
	for _, m := range exact {
		d.ow.specd[m] = true
	}
	d.refreshOpenWorld()
	return res, nil
}

// refreshOpenWorld rebuilds the blended summaries against the engine's
// current adjacency (base graph or delta overlay). Called by EnableOpenWorld
// and at the end of every mutator that changes the adjacency (ApplyDelta,
// Compact, ApplySpecs); a no-op on closed-world engines.
func (d *DynSum) refreshOpenWorld() {
	ow := d.ow
	if ow == nil {
		return
	}
	marked := d.g.BodylessMethods()
	active := make(map[pag.MethodID]*pptaResult, len(marked))
	for _, m := range marked {
		if ow.specd[m] {
			continue
		}
		info, _ := d.g.Bodyless(m)
		if owHasBody(d.view, info) {
			continue // a delta provided a real body: exact answers resume
		}
		active[m] = &pptaResult{objs: []pag.NodeID{info.BlobObj}}
	}
	// One node scan fills every active method's ⊤-frontier: each boundary
	// node (touches a global edge) continues in the directions the driver
	// can expand. Bodyless nodes have no local edges, so each is its own
	// SCC representative and the frontier is valid under both adjacencies.
	total := d.ov.NumNodes()
	for i := 0; i < total; i++ {
		id := pag.NodeID(i)
		r, ok := active[d.ov.Node(id).Method]
		if !ok {
			continue
		}
		if d.view.HasGlobalIn(id) {
			r.frontier = append(r.frontier, FrontierState{Node: id, Fs: intstack.Wild, St: S1})
		}
		if d.view.HasGlobalOut(id) {
			r.frontier = append(r.frontier, FrontierState{Node: id, Fs: intstack.Wild, St: S2})
		}
	}
	ow.active = active
	ow.pess = nil
	if ow.policy == PolicyPessimistic {
		ow.pess = d.buildPessimistic(active)
	}
}

// owHasBody reports whether a marked-bodyless method has (re)gained local
// edges on its recorded interface — a spec lowering or a delta-delivered
// body — and must leave blended treatment.
func owHasBody(view *pag.View, info pag.BodylessInfo) bool {
	for _, f := range info.Formals {
		if f != pag.NoNode && view.HasLocalEdges(f) {
			return true
		}
	}
	if info.Ret != pag.NoNode && view.HasLocalEdges(info.Ret) {
		return true
	}
	return view.HasLocalEdges(info.BlobVar) || view.HasLocalEdges(info.BlobObj)
}

// buildPessimistic unions every active blended summary and adds the
// ⊤-frontier over all global variables (unknown code may read or write any
// static). Deterministic: methods in ascending order, nodes in scan order.
func (d *DynSum) buildPessimistic(active map[pag.MethodID]*pptaResult) *pptaResult {
	p := &pptaResult{}
	for _, m := range d.g.BodylessMethods() {
		if r, ok := active[m]; ok {
			p.objs = append(p.objs, r.objs...)
			p.frontier = append(p.frontier, r.frontier...)
		}
	}
	total := d.ov.NumNodes()
	for i := 0; i < total; i++ {
		id := pag.NodeID(i)
		if d.ov.Node(id).Kind != pag.Global {
			continue
		}
		if d.view.HasGlobalIn(id) {
			p.frontier = append(p.frontier, FrontierState{Node: id, Fs: intstack.Wild, St: S1})
		}
		if d.view.HasGlobalOut(id) {
			p.frontier = append(p.frontier, FrontierState{Node: id, Fs: intstack.Wild, St: S2})
		}
	}
	return p
}

// owSummarize serves the open-world summary for a state at node n, already
// rep-mapped. handled is false when n's method is not actively bodyless —
// the caller proceeds with the closed-world path.
func (d *DynSum) owSummarize(n pag.NodeID) (r *pptaResult, handled bool, err error) {
	ow := d.ow
	m := d.ov.Node(n).Method
	r, ok := ow.active[m]
	if !ok {
		return nil, false, nil
	}
	switch ow.policy {
	case PolicySpecOnly:
		return nil, true, &NoSpecError{Method: m, Name: d.ov.MethodInfo(m).Name}
	case PolicyPessimistic:
		return ow.pess, true, nil
	}
	return r, true, nil
}
