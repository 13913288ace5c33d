package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"dynsum/internal/check"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
	"dynsum/internal/refine"
	"dynsum/internal/stasum"
)

// This file cross-validates the frozen CSR graph layout against the
// builder-form adjacency on the random-program corpus. The generator is
// deterministic per seed, so building a program twice yields two
// identical PAGs; freezing one of them must not change its adjacency.
// Engines read only the frozen form and refuse the builder form.

// edgeSet reduces an adjacency slice to a multiset-independent key set
// (PAGs are duplicate-free, so set equality is exact equality).
func edgeSet(es []pag.Edge) map[pag.Edge]bool {
	m := make(map[pag.Edge]bool, len(es))
	for _, e := range es {
		m[e] = true
	}
	return m
}

func sameEdges(a, b []pag.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	bs := edgeSet(b)
	for _, e := range a {
		if !bs[e] {
			return false
		}
	}
	return true
}

// checkPartition asserts the layout invariant every engine hot loop
// depends on: LocalX ∪ GlobalX = X, the partitions are kind-pure, and the
// concatenation order is locals first. The partitioned accessors read the
// frozen layout only; on a builder-form graph X is split at its first
// global edge, so a local edge after a global one still fails the check.
func checkPartition(t *testing.T, g *pag.Graph, tag string) {
	t.Helper()
	split := func(all []pag.Edge, local, global func(pag.NodeID) []pag.Edge, n pag.NodeID) [3][]pag.Edge {
		if g.Frozen() {
			return [3][]pag.Edge{all, local(n), global(n)}
		}
		k := 0
		for k < len(all) && all[k].Kind.IsLocal() {
			k++
		}
		return [3][]pag.Edge{all, all[:k], all[k:]}
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := pag.NodeID(i)
		for dir, spans := range map[string][3][]pag.Edge{
			"out": split(g.Out(n), g.LocalOut, g.GlobalOut, n),
			"in":  split(g.In(n), g.LocalIn, g.GlobalIn, n),
		} {
			all, loc, glob := spans[0], spans[1], spans[2]
			if len(loc)+len(glob) != len(all) {
				t.Fatalf("%s: node %d %s: |local|+|global| = %d+%d != %d",
					tag, n, dir, len(loc), len(glob), len(all))
			}
			for j, e := range all {
				wantLocal := j < len(loc)
				if e.Kind.IsLocal() != wantLocal {
					t.Fatalf("%s: node %d %s[%d] = %v violates the local-first partition",
						tag, n, dir, j, e)
				}
			}
			for _, e := range loc {
				if !e.Kind.IsLocal() {
					t.Fatalf("%s: node %d local %s contains global edge %v", tag, n, dir, e)
				}
			}
			for _, e := range glob {
				if e.Kind.IsLocal() {
					t.Fatalf("%s: node %d global %s contains local edge %v", tag, n, dir, e)
				}
			}
		}
	}
}

// TestFrozenAdjacencyMatchesBuilderForm: freezing preserves every node's
// adjacency (as a set) and the partition invariant holds in both forms.
func TestFrozenAdjacencyMatchesBuilderForm(t *testing.T) {
	for seed := int64(0); seed < seedSpan(20); seed++ {
		cfg := fixture.RandConfig{Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3}
		mut := fixture.RandProgramMutable(seed, cfg)
		frz := fixture.RandProgram(seed, cfg)
		if !frz.G.Frozen() || mut.G.Frozen() {
			t.Fatal("freeze state mixed up")
		}
		checkPartition(t, mut.G, fmt.Sprintf("seed %d builder", seed))
		checkPartition(t, frz.G, fmt.Sprintf("seed %d frozen", seed))
		// Deep structural validation of both forms, plus the freeze-time
		// condensation (internal/check is the full-invariant superset of
		// the spot checks above).
		if err := check.Graph(mut.G); err != nil {
			t.Fatalf("seed %d builder: %v", seed, err)
		}
		if err := check.Graph(frz.G); err != nil {
			t.Fatalf("seed %d frozen: %v", seed, err)
		}
		if err := check.Condensation(frz.G, frz.G.Condensation().View()); err != nil {
			t.Fatalf("seed %d condensation: %v", seed, err)
		}
		if mut.G.NumNodes() != frz.G.NumNodes() || mut.G.NumEdges() != frz.G.NumEdges() {
			t.Fatalf("seed %d: node/edge counts diverge", seed)
		}
		for i := 0; i < mut.G.NumNodes(); i++ {
			n := pag.NodeID(i)
			if !sameEdges(mut.G.Out(n), frz.G.Out(n)) {
				t.Errorf("seed %d: Out(%d) diverges after freeze", seed, n)
			}
			if !sameEdges(mut.G.In(n), frz.G.In(n)) {
				t.Errorf("seed %d: In(%d) diverges after freeze", seed, n)
			}
		}
	}
}

// TestEnginesRejectBuilderForm: every engine reads adjacency through the
// frozen layout only, so each constructor refuses a builder-form graph up
// front with a message that names the fix, instead of failing later at
// the first edge read.
func TestEnginesRejectBuilderForm(t *testing.T) {
	mut := fixture.RandProgramMutable(1, fixture.RandConfig{})
	ctors := map[string]func(){
		"DYNSUM":    func() { core.NewDynSum(mut.G, bigBudget, nil) },
		"NOREFINE":  func() { refine.NewNoRefine(mut.G, bigBudget, nil) },
		"REFINEPTS": func() { refine.NewRefinePts(mut.G, bigBudget, nil) },
		"STASUM":    func() { stasum.New(mut.G, bigBudget, nil) },
	}
	for name, ctor := range ctors {
		func() {
			defer func() {
				r := recover()
				msg := fmt.Sprint(r)
				if r == nil || !strings.Contains(msg, "Freeze") || !strings.Contains(msg, "Builder.Finish") {
					t.Errorf("%s on a builder-form graph: panic %q, want one naming Freeze and Builder.Finish", name, msg)
				}
			}()
			ctor()
		}()
	}
}
