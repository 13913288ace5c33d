package core

import (
	"errors"
	"fmt"

	"dynsum/internal/pag"
)

// This file exposes the summary-cache and intern-table integrity checks
// to internal/check (check.Cache delegates here): the invariants live on
// unexported structures, so the audit has to run inside the package. The
// checks take the shard locks stripe by stripe and are meant for
// quiesced engines — tests, fuzz targets, tools — not for concurrent use
// on a live batch.

// checkMaxViolations caps the collected violations, mirroring
// internal/check's cap.
const checkMaxViolations = 20

// CheckIntegrity verifies the engine's cache-layer invariants:
//
//   - every live summary-cache entry is reachable from the per-method key
//     index under the method of its key's node — the property
//     per-method invalidation's O(method) walk depends on (the reverse — stale
//     or duplicate index keys without a live entry — is documented as
//     tolerated and not reported)
//   - cache keys name nodes inside the current view's ID space
//   - every interned slice still hashes to the table key it is filed
//     under, and is non-empty (empty slices pass through uninterned)
//
// It returns nil when healthy, or the joined violations.
func (d *DynSum) CheckIntegrity() error {
	var errs []error
	report := func(format string, args ...any) {
		if len(errs) < checkMaxViolations {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}

	numNodes := d.ov.NumNodes()

	// Index the per-method key lists: method -> key set.
	indexed := make(map[pag.MethodID]map[pptaState]bool)
	for i := range d.cache.methods {
		ms := &d.cache.methods[i]
		ms.mu.Lock()
		for m, keys := range ms.m {
			set := indexed[m]
			if set == nil {
				set = make(map[pptaState]bool, len(keys))
				indexed[m] = set
			}
			for _, k := range keys {
				set[k] = true
			}
		}
		ms.mu.Unlock()
	}

	for i := range d.cache.shards {
		s := &d.cache.shards[i]
		s.mu.RLock()
		for k, res := range s.m {
			if int(k.node) < 0 || int(k.node) >= numNodes {
				report("cache: entry key node %d outside the view's %d nodes", k.node, numNodes)
				continue
			}
			m := d.ov.Node(k.node).Method
			if !indexed[m][k] {
				report("cache: entry for %s (method %d, fs %d, st %v) not reachable from the method index — per-method invalidation would miss it",
					d.ov.NodeString(k.node), m, k.fs, k.st)
			}
			if res == nil {
				report("cache: entry for %s holds a nil result", d.ov.NodeString(k.node))
			}
		}
		s.mu.RUnlock()
	}

	// Intern table: every filed slice re-hashes to its key.
	for i := range d.intern.shards {
		sh := &d.intern.shards[i]
		sh.mu.Lock()
		for h, s := range sh.objects {
			if len(s) == 0 {
				report("intern: empty object slice filed under %#x", h)
				continue
			}
			if got := hashObjects(s); got != h {
				report("intern: object slice filed under %#x hashes to %#x — canonical array mutated?", h, got)
			}
		}
		for h, s := range sh.frontiers {
			if len(s) == 0 {
				report("intern: empty frontier slice filed under %#x", h)
				continue
			}
			if got := hashFrontiers(s); got != h {
				report("intern: frontier slice filed under %#x hashes to %#x — canonical array mutated?", h, got)
			}
		}
		sh.mu.Unlock()
	}

	return errors.Join(errs...)
}

// hashObjects recomputes the intern hash of an object slice — the exact
// loop of resultIntern.objects, factored so CheckIntegrity cannot drift
// from the insert path.
func hashObjects(s []pag.NodeID) uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(len(s)))
	for _, n := range s {
		h = fnvWord(h, uint64(uint32(n)))
	}
	return h
}

// hashFrontiers recomputes the intern hash of a frontier slice.
func hashFrontiers(s []FrontierState) uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(len(s)))
	for _, f := range s {
		h = fnvWord(h, uint64(uint32(f.Node))<<32|uint64(uint32(f.Fs)))
		h = fnvWord(h, uint64(f.St))
	}
	return h
}
