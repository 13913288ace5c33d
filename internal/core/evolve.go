package core

import (
	"errors"

	"dynsum/internal/delta"
	"dynsum/internal/pag"
)

// This file wires the delta subsystem (internal/delta) into the DYNSUM
// engine: applying an epoch patches the engine's view of the frozen graph
// and drives targeted summary invalidation through the per-method cache
// index, so a program that keeps arriving (class loading, JIT
// recompilation, an IDE session) is absorbed at frozen-graph speed — the
// query path keeps its condensation, memoisation and zero-alloc warm
// behaviour, only the summaries the epoch actually touched are recomputed.
//
// All three operations here are engine mutators: like ResetCache they
// must not race in-flight queries — quiesce the engine first.

// ErrNotEvolved is returned by Compact when no epoch has been applied
// since construction or the last Compact.
var ErrNotEvolved = errors.New("core: engine has no delta overlay to compact")

// DeltaResult reports what one applied epoch did: the overlay-level
// ApplyStats plus the engine-level consequences (summaries invalidated
// through the per-method index, whether auto-compaction ran).
type DeltaResult struct {
	delta.ApplyStats

	// InvalidatedSummaries counts the cached summaries dropped for the
	// epoch's touched methods — each an O(method) deleteMethod, never a
	// cache scan.
	InvalidatedSummaries int

	// Compacted reports that the overlay crossed Config.CompactFraction
	// and was merged into a fresh frozen graph (see Compact).
	Compacted bool
}

// NewDeltaLog starts a change log positioned at the engine's current
// program: fill it with delta.Log's Add/Redefine methods and apply it with
// ApplyDelta. The error is always nil; it is kept for callers that check.
func (d *DynSum) NewDeltaLog() (*delta.Log, error) {
	return d.ov.NewLog(), nil
}

// ApplyDelta applies one epoch of recorded program changes to the engine
// (a mutator: quiesce first). The overlay absorbs the change without
// touching the frozen CSR arrays, the condensation is repaired locally
// (patched methods fall back to singleton representatives; untouched SCCs
// keep their shared summaries), and exactly the touched methods' cached
// summaries are invalidated via the per-method key index. When the
// overlay's size crosses Config.CompactFraction of the base graph, the
// epoch finishes with an automatic Compact.
func (d *DynSum) ApplyDelta(l *delta.Log) (res DeltaResult, err error) {
	// Quarantine boundary: Apply stages every change read-only before its
	// commit point, so a panic it lets escape means the overlay (and the
	// engine) are still exactly the pre-epoch state — convert it to a
	// typed error and keep serving. A panic past the commit point is
	// re-raised: a half-applied epoch must not masquerade as an error
	// return. The log is untouched by a pre-commit abort and may be
	// re-applied.
	defer func() {
		if r := recover(); r != nil {
			if d.ov.Broken() {
				panic(r)
			}
			err = newMutatorPanicError("ApplyDelta", r)
		}
	}()
	st, err := d.ov.Apply(l)
	if err != nil {
		return DeltaResult{}, err
	}
	d.resolveView()
	res = DeltaResult{ApplyStats: st}
	for _, m := range st.TouchedMethods {
		res.InvalidatedSummaries += d.cache.deleteMethod(m)
	}
	if frac := d.cfg.CompactFraction; frac > 0 && st.OverlayFraction > frac {
		if err := d.Compact(); err != nil {
			return res, err
		}
		res.Compacted = true
	} else {
		// The epoch may have delivered a body to a bodyless method (or new
		// boundary edges to one): rebuild the open-world model against the
		// patched adjacency. Compact refreshes itself.
		d.refreshOpenWorld()
	}
	return res, nil
}

// Compact merges the engine's overlay into a fresh frozen, re-condensed
// graph with identical IDs and drops the overlay (a mutator: quiesce
// first). The summary cache is cleared — the fresh condensation may pick
// different representatives, so representative-keyed entries cannot be
// carried over; that occasional full re-warm is the cost the overlay
// amortises across the epochs in between. Returns ErrNotEvolved when no
// epoch has been applied since construction or the last Compact.
func (d *DynSum) Compact() (err error) {
	// Quarantine boundary: Overlay.Compact builds the replacement graph
	// entirely off to the side — the engine's graph, overlay and cache are
	// untouched until the swap below — so a panic anywhere inside the
	// rebuild leaves the engine fully usable on its old overlay. Convert
	// it to a typed error; a later retry just rebuilds from scratch.
	defer func() {
		if r := recover(); r != nil {
			err = newMutatorPanicError("Compact", r)
		}
	}()
	if d.ov.Epoch() == 0 {
		return ErrNotEvolved
	}
	g, err := d.ov.Compact()
	if err != nil {
		return err
	}
	ov, err := delta.NewOverlay(g)
	if err != nil {
		return err
	}
	d.g, d.ov = g, ov
	d.resolveView()
	d.cache.clear()
	d.compactions++
	d.refreshOpenWorld() // the blended frontiers referenced the old graph
	return nil
}

// Overlay exposes the engine's delta overlay for statistics (at epoch 0
// when the engine has never applied a delta, or right after a Compact).
func (d *DynSum) Overlay() *delta.Overlay { return d.ov }

// Compactions returns how many times the engine merged its overlay back
// into a fresh frozen graph.
func (d *DynSum) Compactions() int { return d.compactions }

// Graph returns the engine's current graph — the compacted one after a
// Compact swapped it in.
func (d *DynSum) Graph() *pag.Graph { return d.g }
