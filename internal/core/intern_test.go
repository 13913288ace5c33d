package core

import (
	"sync"
	"testing"

	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// TestInternSharesEqualSlices: structurally equal slices intern to one
// backing array (pointer-equal), unequal ones stay distinct.
func TestInternSharesEqualSlices(t *testing.T) {
	ti := newResultIntern()

	a := []pag.NodeID{1, 2, 3}
	b := []pag.NodeID{1, 2, 3}
	c := []pag.NodeID{1, 2, 4}
	if got := ti.objects(a); &got[0] != &a[0] {
		t.Error("first intern did not keep the original array")
	}
	if got := ti.objects(b); &got[0] != &a[0] {
		t.Error("equal object slices did not share one array")
	}
	if got := ti.objects(c); &got[0] == &a[0] {
		t.Error("unequal object slices were merged")
	}

	f1 := []FrontierState{{Node: 7, Fs: intstack.Empty, St: S1}}
	f2 := []FrontierState{{Node: 7, Fs: intstack.Empty, St: S1}}
	f3 := []FrontierState{{Node: 7, Fs: intstack.Empty, St: S2}}
	ti.frontiers(f1)
	if got := ti.frontiers(f2); &got[0] != &f1[0] {
		t.Error("equal frontier slices did not share one array")
	}
	if got := ti.frontiers(f3); &got[0] == &f1[0] {
		t.Error("unequal frontier slices were merged")
	}

	shared, unique := ti.stats()
	if shared != 2 || unique != 4 {
		t.Errorf("stats = (%d shared, %d unique), want (2, 4)", shared, unique)
	}
}

// TestInternEmptySlices: nil/empty pass through without table traffic.
func TestInternEmptySlices(t *testing.T) {
	ti := newResultIntern()
	if ti.objects(nil) != nil || ti.frontiers(nil) != nil {
		t.Error("nil slices transformed")
	}
	if got := ti.objects([]pag.NodeID{}); len(got) != 0 {
		t.Error("empty slice transformed")
	}
	if shared, unique := ti.stats(); shared != 0 || unique != 0 {
		t.Error("empty slices hit the table")
	}
}

// TestInternConcurrent hammers one table from many goroutines with a
// small value universe; every returned slice must carry the right
// contents (run with -race to check the locking).
func TestInternConcurrent(t *testing.T) {
	ti := newResultIntern()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := pag.NodeID(i % 17)
				got := ti.objects([]pag.NodeID{v, v + 1})
				if len(got) != 2 || got[0] != v || got[1] != v+1 {
					t.Errorf("corrupted intern result %v", got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, unique := ti.stats(); unique != 17 {
		t.Errorf("unique = %d, want 17", unique)
	}
}

// TestInternedAnswersMatchUncached runs a random-program workload with a
// threshold low enough that most summaries are interned, and compares
// every answer against an engine that neither caches nor interns —
// sharing backing arrays must be invisible to results.
func TestInternedAnswersMatchUncached(t *testing.T) {
	prev := internMinSummaries
	internMinSummaries = 4
	t.Cleanup(func() { internMinSummaries = prev })

	for seed := int64(40); seed < 44; seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3,
		})
		cfg := Config{Budget: 200_000}
		interned := NewDynSum(prog.G, cfg, nil)
		plainCfg := cfg
		plainCfg.DisableCache = true
		plain := NewDynSum(prog.G, plainCfg, interned.Ctxs())
		for pass := 0; pass < 2; pass++ { // second pass hits shared arrays
			for _, v := range fixture.AllLocals(prog) {
				a, errA := interned.PointsTo(v)
				b, errB := plain.PointsTo(v)
				if (errA == nil) != (errB == nil) {
					continue // budget boundary; conservative either way
				}
				if errA == nil && !a.Equal(b) {
					t.Fatalf("seed %d pass %d: interned pts(%s) = %v, uncached %v",
						seed, pass, prog.G.NodeString(v), a, b)
				}
			}
		}
		if _, unique := interned.InternStats(); unique == 0 {
			t.Errorf("seed %d: interning never activated", seed)
		}
	}
}

// TestDynSumInternsCachedSummaries: a warmed engine on a program with
// repeated structure reports interning activity, and repeated queries
// still answer identically (sharing is invisible to results). The
// deferred-start threshold is lowered so the small fixture exercises the
// intern path.
func TestDynSumInternsCachedSummaries(t *testing.T) {
	prev := internMinSummaries
	internMinSummaries = 0
	t.Cleanup(func() { internMinSummaries = prev })

	f := fixture.BuildFigure2()
	d := NewDynSum(f.Prog.G, Config{}, nil)
	for _, q := range []pag.NodeID{f.S1, f.S2} {
		if _, err := d.PointsTo(q); err != nil {
			t.Fatal(err)
		}
	}
	shared, unique := d.InternStats()
	if unique == 0 {
		t.Error("no summaries interned on a warmed engine")
	}
	if shared < 0 {
		t.Error("negative shared count")
	}
	a, err := d.PointsTo(f.S1)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewDynSum(f.Prog.G, Config{}, d.Ctxs())
	b, err := cold.PointsTo(f.S1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("interned warm answer %v != cold answer %v", a, b)
	}
}
