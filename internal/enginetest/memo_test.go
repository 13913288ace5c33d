package enginetest

import (
	"fmt"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file is the memoisation equivalence sweep: DYNSUM running the
// memoised PPTA (cache splice-in + per-state write-back) must answer every
// query with the identical (object, heap-context) set as a DisableCache
// engine running the flat, cache-oblivious traversal — the executable
// oracle for "splicing a cached closure is the same as expanding it".
// Swept across the random corpus, the cyclic benchmarks (condensation
// interacting with memoisation) and the DAG-heavy diamond profiles (where
// condensation is inert and all reuse comes from the memoisation), in both
// condensed and base adjacency modes.

// memoPair builds a memoised engine and its flat DisableCache oracle over
// one graph and one context table.
func memoPair(g *pag.Graph, ctxs *intstack.Table, base bool) (memo, oracle *core.DynSum) {
	cfg := bigBudget
	cfg.DisableCondense = base
	memo = core.NewDynSum(g, cfg, ctxs)
	cfg.DisableCache = true
	oracle = core.NewDynSum(g, cfg, ctxs)
	return memo, oracle
}

// TestMemoisedMatchesFlatRandomCorpus sweeps the random programs in both
// adjacency modes. Every query is asked twice on the memoised engine —
// cold (computing and writing back) and warm (answering from splices and
// hits) — and both answers must equal the flat oracle's, heap contexts
// included.
func TestMemoisedMatchesFlatRandomCorpus(t *testing.T) {
	for seed := int64(900); seed < 900+seedSpan(20); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3,
		})
		for _, base := range []bool{false, true} {
			ctxs := new(intstack.Table)
			memo, oracle := memoPair(prog.G, ctxs, base)
			for _, v := range fixture.AllLocals(prog) {
				want, errW := oracle.PointsTo(v)
				cold, errC := memo.PointsTo(v)
				tag := fmt.Sprintf("seed %d base=%v cold", seed, base)
				if compareOn(t, tag, prog.G, v, cold, want, errC, errW, true) {
					continue
				}
				warm, errH := memo.PointsTo(v)
				compareOn(t, fmt.Sprintf("seed %d base=%v warm", seed, base), prog.G, v, warm, want, errH, errW, true)
			}
		}
	}
}

// TestMemoisedMatchesFlatBenchmarks runs the sweep on generated benchmark
// programs where the memoisation actually bites: the cyclic profiles (big
// assign SCCs; write-back must respect representative keying) and the
// diamond profiles (deep acyclic overlap; condensation does nothing and
// the visit reduction must come from splice-in/write-back alone). Beyond
// answer equality, the memoised engine must expand strictly fewer PPTA
// states than the flat oracle and must actually splice and write back.
func TestMemoisedMatchesFlatBenchmarks(t *testing.T) {
	scale := 0.01
	if testing.Short() {
		scale = 0.004
	}
	profiles := append(append([]benchgen.Profile{}, benchgen.CyclicProfiles...), benchgen.DiamondProfiles...)
	for _, p := range profiles {
		prog := benchgen.Generate(p.Scaled(scale), 7)
		for _, base := range []bool{false, true} {
			ctxs := new(intstack.Table)
			memo, oracle := memoPair(prog.G, ctxs, base)
			queried := map[pag.NodeID]bool{}
			for _, v := range queryVars(prog) {
				if queried[v] {
					continue
				}
				queried[v] = true
				want, errW := oracle.PointsTo(v)
				got, errG := memo.PointsTo(v)
				compareOn(t, fmt.Sprintf("%s base=%v", p.Name, base), prog.G, v, got, want, errG, errW, true)
			}
			mm, mo := memo.Metrics().Snapshot(), oracle.Metrics().Snapshot()
			if mm.PPTAVisits >= mo.PPTAVisits {
				t.Errorf("%s base=%v: memoised engine expanded %d states, flat oracle %d — no reuse",
					p.Name, base, mm.PPTAVisits, mo.PPTAVisits)
			}
			if mm.WrittenBackSummaries == 0 {
				t.Errorf("%s base=%v: no write-backs recorded", p.Name, base)
			}
			if p.Diamond && mm.SplicedSummaries == 0 {
				t.Errorf("%s base=%v: diamond workload spliced nothing", p.Name, base)
			}
		}
	}
}

// TestWriteBackWarmsQueryFootprint pins the tentpole's amortisation claim
// on a transparent fixture: one query on the tail of a copy chain must
// leave a cache entry for every interior state, so a follow-up query on
// any interior variable is a pure driver-level cache hit — no PPTA run,
// no state expansion.
func TestWriteBackWarmsQueryFootprint(t *testing.T) {
	const n = 10
	b := pag.NewBuilder()
	cls := b.Class("C", pag.NoClass)
	m := b.Method("M", cls)
	vars := make([]pag.NodeID, n)
	vars[0] = b.Local(m, "x0", cls)
	o := b.NewObject(vars[0], "o", cls)
	for i := 1; i < n; i++ {
		vars[i] = b.Local(m, fmt.Sprintf("x%d", i), cls)
		b.Copy(vars[i], vars[i-1])
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDynSum(g, core.Config{}, nil)
	pts, err := d.PointsTo(vars[n-1])
	if err != nil {
		t.Fatal(err)
	}
	if !pts.HasObject(o) || pts.Len() != 1 {
		t.Fatalf("pts(x%d) = %v", n-1, pts)
	}
	m0 := d.Metrics().Snapshot()
	if got := d.SummaryCount(); got < n {
		t.Fatalf("tail query cached %d summaries, want >= %d (one per chain state)", got, n)
	}
	if m0.WrittenBackSummaries < int64(n) {
		t.Fatalf("WrittenBackSummaries = %d, want >= %d", m0.WrittenBackSummaries, n)
	}

	for _, v := range vars[:n-1] {
		pts, err := d.PointsTo(v)
		if err != nil {
			t.Fatal(err)
		}
		if !pts.HasObject(o) || pts.Len() != 1 {
			t.Fatalf("pts(%s) = %v", g.NodeString(v), pts)
		}
	}
	m1 := d.Metrics().Snapshot()
	if m1.Summaries != m0.Summaries {
		t.Errorf("interior queries computed %d new summaries, want 0", m1.Summaries-m0.Summaries)
	}
	if m1.PPTAVisits != m0.PPTAVisits {
		t.Errorf("interior queries expanded %d new states, want 0", m1.PPTAVisits-m0.PPTAVisits)
	}
	if hits := m1.CacheHits - m0.CacheHits; hits < int64(n-1) {
		t.Errorf("interior queries hit the cache %d times, want >= %d", hits, n-1)
	}
}
