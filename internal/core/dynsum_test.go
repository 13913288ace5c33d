package core_test

import (
	"errors"
	"fmt"
	"testing"

	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

func objects(t *testing.T, a core.Analysis, v pag.NodeID) []pag.NodeID {
	t.Helper()
	pts, err := a.PointsTo(v)
	if err != nil {
		t.Fatalf("%s.PointsTo: %v", a.Name(), err)
	}
	return pts.Objects()
}

func checkMicro(t *testing.T, a core.Analysis, m *fixture.Micro) {
	t.Helper()
	pts, err := a.PointsTo(m.Query)
	if err != nil {
		t.Fatalf("%s on %s: %v", a.Name(), m.Prog.Name, err)
	}
	for _, want := range m.Want {
		if !pts.HasObject(want) {
			t.Errorf("%s on %s: missing %s; got %s", a.Name(), m.Prog.Name,
				m.Prog.G.NodeString(want), pts.FormatObjects(m.Prog.G))
		}
	}
	for _, not := range m.Not {
		if pts.HasObject(not) {
			t.Errorf("%s on %s: spurious %s; got %s", a.Name(), m.Prog.Name,
				m.Prog.G.NodeString(not), pts.FormatObjects(m.Prog.G))
		}
	}
}

func micros() map[string]*fixture.Micro {
	return map[string]*fixture.Micro{
		"AssignChain":           fixture.AssignChain(5),
		"FieldPair":             fixture.FieldPair(),
		"TwoFields":             fixture.TwoFields(),
		"CallReturn":            fixture.CallReturn(),
		"ContextSeparation":     fixture.ContextSeparation(),
		"GlobalFlow":            fixture.GlobalFlow(),
		"PointsToCycle":         fixture.PointsToCycle(),
		"FieldCycleThroughCall": fixture.FieldCycleThroughCall(),
	}
}

func TestDynSumMicros(t *testing.T) {
	for name, m := range micros() {
		t.Run(name, func(t *testing.T) {
			d := core.NewDynSum(m.Prog.G, core.Config{}, nil)
			checkMicro(t, d, m)
		})
	}
}

func TestDynSumFigure2(t *testing.T) {
	f := fixture.BuildFigure2()
	if err := f.Prog.G.Validate(); err != nil {
		t.Fatalf("figure2 invalid: %v", err)
	}
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)

	s1 := objects(t, d, f.S1)
	if len(s1) != 1 || s1[0] != f.O26 {
		t.Errorf("pts(s1) = %v, want {o26=%d}", s1, f.O26)
	}
	s2 := objects(t, d, f.S2)
	if len(s2) != 1 || s2[0] != f.O29 {
		t.Errorf("pts(s2) = %v, want {o29=%d}", s2, f.O29)
	}

	// Sanity on intermediate variables.
	v1 := objects(t, d, f.V1)
	if len(v1) != 1 || v1[0] != f.O25 {
		t.Errorf("pts(v1) = %v, want {o25}", v1)
	}
	// p in Vector.add receives both Integer and String arguments
	// (context merging at the formal when queried with empty context).
	p := objects(t, d, f.PAdd)
	if len(p) != 2 {
		t.Errorf("pts(p) = %v, want 2 objects {o26,o29}", p)
	}
}

// TestDynSumSummaryReuse is the Table 1 claim: answering s2 after s1 must
// reuse cached PPTA summaries and take fewer steps.
func TestDynSumSummaryReuse(t *testing.T) {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)

	if _, err := d.PointsTo(f.S1); err != nil {
		t.Fatal(err)
	}
	m1 := *d.Metrics()
	sum1 := d.SummaryCount()
	if sum1 == 0 {
		t.Fatal("no summaries cached after first query")
	}

	if _, err := d.PointsTo(f.S2); err != nil {
		t.Fatal(err)
	}
	m2 := *d.Metrics()

	hits := m2.CacheHits - m1.CacheHits
	if hits == 0 {
		t.Error("second query reused no summaries")
	}
	work1 := m1.PPTAVisits
	work2 := m2.PPTAVisits - m1.PPTAVisits
	if work2 >= work1 {
		t.Errorf("second query did not get cheaper: ppta visits %d vs %d", work2, work1)
	}
}

func TestDynSumQueryIndependence(t *testing.T) {
	// The result of a query must not depend on cache state left by
	// earlier queries (reuse without precision loss).
	f := fixture.BuildFigure2()
	fresh := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	warm := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	if _, err := warm.PointsTo(f.S1); err != nil {
		t.Fatal(err)
	}
	for _, q := range []pag.NodeID{f.S2, f.PAdd, f.TGet, f.V2, f.RetGet} {
		a, err := fresh.PointsTo(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := warm.PointsTo(q)
		if err != nil {
			t.Fatal(err)
		}
		if !a.SameObjects(b) {
			t.Errorf("query %s: cold %s vs warm %s", f.Prog.G.NodeString(q),
				a.FormatObjects(f.Prog.G), b.FormatObjects(f.Prog.G))
		}
	}
}

func TestDynSumBudgetExceeded(t *testing.T) {
	m := fixture.AssignChain(50)
	d := core.NewDynSum(m.Prog.G, core.Config{Budget: 10}, nil)
	_, err := d.PointsTo(m.Query)
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if d.Metrics().Failed != 1 {
		t.Errorf("Failed = %d, want 1", d.Metrics().Failed)
	}
}

func TestDynSumFieldDepthCap(t *testing.T) {
	// x = x.f in a loop: unbounded field stack must hit the depth cap,
	// not diverge.
	b := pag.NewBuilder()
	cls := b.Class("A", pag.NoClass)
	m := b.Method("A.m", cls)
	fld := b.G.AddField("A.f")
	x := b.Local(m, "x", cls)
	y := b.Local(m, "y", cls)
	b.NewObject(y, "o", cls)
	b.Load(x, x, fld) // x = x.f
	b.Load(x, y, fld) // x = y.f  (forces a path into the self-loop)
	b.G.Freeze()
	d := core.NewDynSum(b.G, core.Config{MaxFieldDepth: 8}, nil)
	_, err := d.PointsTo(x)
	if !errors.Is(err, core.ErrDepth) && !errors.Is(err, core.ErrBudget) {
		t.Fatalf("err = %v, want depth/budget error", err)
	}
}

func TestDynSumHeapContexts(t *testing.T) {
	// ContextSeparation: o1 must be discovered under the empty context
	// (allocation happens in the caller itself).
	m := fixture.ContextSeparation()
	d := core.NewDynSum(m.Prog.G, core.Config{}, nil)
	pts, err := d.PointsTo(m.Query)
	if err != nil {
		t.Fatal(err)
	}
	pairs := pts.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v, want exactly one", pairs)
	}
	if pairs[0].Ctx != 0 {
		t.Errorf("heap context = %v, want empty", d.Ctxs().Slice(pairs[0].Ctx))
	}
}

func TestDynSumCacheDisable(t *testing.T) {
	f := fixture.BuildFigure2()
	dCfg := core.Config{}
	dCfg.DisableCache = true
	d := core.NewDynSum(f.Prog.G, dCfg, nil)
	if _, err := d.PointsTo(f.S1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PointsTo(f.S2); err != nil {
		t.Fatal(err)
	}
	if d.SummaryCount() != 0 {
		t.Errorf("SummaryCount = %d with cache disabled", d.SummaryCount())
	}
	if d.Metrics().CacheHits != 0 {
		t.Errorf("CacheHits = %d with cache disabled", d.Metrics().CacheHits)
	}
}

// TestImportSummariesOtherMode: a summary snapshot written under the other
// adjacency mode imports as a cold start when well-formed and still fails
// when malformed.
func TestImportSummariesOtherMode(t *testing.T) {
	f := fixture.BuildFigure2()
	src := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	if _, err := src.PointsTo(f.S1); err != nil {
		t.Fatal(err)
	}
	snap := src.ExportSummaries()
	if snap == nil || len(snap.Entries) == 0 {
		t.Fatal("warm engine exported no summaries")
	}

	base := core.NewDynSum(f.Prog.G, core.Config{DisableCondense: true}, nil)
	if err := base.ImportSummaries(snap); err != nil {
		t.Fatalf("well-formed other-mode snapshot: %v", err)
	}
	if base.SummaryCount() != 0 {
		t.Errorf("other-mode import left %d summaries, want a cold engine", base.SummaryCount())
	}

	bad := *snap
	bad.StackSyms = append(bad.StackSyms[:len(bad.StackSyms):len(bad.StackSyms)], 0)
	base = core.NewDynSum(f.Prog.G, core.Config{DisableCondense: true}, nil)
	if err := base.ImportSummaries(&bad); err == nil {
		t.Error("ragged other-mode snapshot imported without error")
	}
}

func TestDynSumTracer(t *testing.T) {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	var tuples, pptas int
	d.Tracer = func(ev core.TraceEvent) {
		switch ev.Kind {
		case "tuple":
			tuples++
		case "ppta":
			pptas++
		}
	}
	if _, err := d.PointsTo(f.S1); err != nil {
		t.Fatal(err)
	}
	if tuples == 0 || pptas == 0 {
		t.Errorf("tracer saw tuples=%d pptas=%d, want both > 0", tuples, pptas)
	}
}

func TestPointsToSetOps(t *testing.T) {
	s := core.NewPointsToSet()
	if !s.Add(3, 0) || s.Add(3, 0) {
		t.Error("Add dedup broken")
	}
	s.Add(1, 2)
	s.Add(3, 1)
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	objs := s.Objects()
	if len(objs) != 2 || objs[0] != 1 || objs[1] != 3 {
		t.Errorf("Objects = %v, want [1 3]", objs)
	}
	if !s.HasObject(1) || s.HasObject(2) {
		t.Error("HasObject broken")
	}
	other := core.NewPointsToSet()
	other.Add(1, 2)
	if s.Equal(other) {
		t.Error("Equal on different sets")
	}
	if !other.ObjectsSubsetOf(s) {
		t.Error("ObjectsSubsetOf broken")
	}
	if s.ObjectsSubsetOf(other) {
		t.Error("superset reported as subset")
	}
	other.Add(3, 0)
	other.Add(3, 1)
	if !s.Equal(other) || !s.SameObjects(other) {
		t.Error("Equal/SameObjects on equal sets returned false")
	}
	if got := s.String(); got != "{o1 o3}" {
		t.Errorf("String = %q", got)
	}
}

func TestBudget(t *testing.T) {
	b := core.NewBudget(2)
	if !b.Step() || !b.Step() {
		t.Error("budget exhausted too early")
	}
	if b.Step() {
		t.Error("budget not exhausted after limit")
	}
	if b.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", b.Remaining())
	}
	if core.NewBudget(5).Remaining() != 5 {
		t.Error("fresh Remaining wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := core.Config{}.WithDefaults()
	if c.Budget != core.DefaultBudget || c.MaxFieldDepth == 0 || c.MaxCtxDepth == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
	c2 := core.Config{Budget: 7}.WithDefaults()
	if c2.Budget != 7 {
		t.Error("explicit budget overridden")
	}
}

// abortFixture builds a frozen program with, in one method, a benign short
// assign chain (the warm-up query) and a victim variable whose closure
// blows the configured limit: a 60-variable assign chain for the budget
// case, or an x = x.f load loop for the depth case. The victim also has a
// small side branch inserted before the heavy edges, so a memoised
// traversal completes (and queues write-backs for) some SCCs before it
// aborts — exercising the pending-discard path, not just the empty queue.
func abortFixture(t *testing.T, depth bool) (g *pag.Graph, warmVar, victim pag.NodeID) {
	t.Helper()
	b := pag.NewBuilder()
	cls := b.Class("A", pag.NoClass)
	m := b.Method("A.m", cls)

	// Warm-up: w2 <- w1 <- new (3 edges; succeeds under every config below).
	w1 := b.Local(m, "w1", cls)
	b.NewObject(w1, "ow", cls)
	w2 := b.Local(m, "w2", cls)
	b.Copy(w2, w1)

	victim = b.Local(m, "v", cls)
	// Side branch first: v <- s1 <- new.
	s1 := b.Local(m, "s1", cls)
	b.NewObject(s1, "os", cls)
	b.Copy(victim, s1)

	if depth {
		// x = x.f self-loop reached from v: unbounded field stack.
		fld := b.G.AddField("A.f")
		x := b.Local(m, "x", cls)
		b.NewObject(x, "ox", cls)
		b.Load(x, x, fld)
		b.Load(victim, x, fld)
	} else {
		// Long chain: v <- c59 <- ... <- c0 <- new.
		prev := b.Local(m, "c0", cls)
		b.NewObject(prev, "oc", cls)
		for i := 1; i < 60; i++ {
			c := b.Local(m, fmt.Sprintf("c%d", i), cls)
			b.Copy(c, prev)
			prev = c
		}
		b.Copy(victim, prev)
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g, w2, victim
}

// TestAbortLeavesCacheByteIdentical is the rollback guarantee: a PPTA
// aborted by ErrBudget or ErrDepth must leave the summary cache exactly as
// it was before the query — no partial closures, whatever the engine mode.
// The memoised path buffers per-state write-backs until a traversal
// completes (an abort discards the buffer); the DisableCache path never
// writes at all. Both are covered, on the condensed and base adjacencies.
func TestAbortLeavesCacheByteIdentical(t *testing.T) {
	cases := []struct {
		name         string
		depth        bool // depth fixture vs budget fixture
		disableCache bool
		disableCond  bool
		wantErr      error
	}{
		{"budget/memo/condensed", false, false, false, core.ErrBudget},
		{"budget/memo/base", false, false, true, core.ErrBudget},
		{"budget/nocache/condensed", false, true, false, core.ErrBudget},
		{"budget/nocache/base", false, true, true, core.ErrBudget},
		{"depth/memo/condensed", true, false, false, core.ErrDepth},
		{"depth/memo/base", true, false, true, core.ErrDepth},
		{"depth/nocache/condensed", true, true, false, core.ErrDepth},
		{"depth/nocache/base", true, true, true, core.ErrDepth},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, warmVar, victim := abortFixture(t, tc.depth)
			cfg := core.Config{Budget: 40}
			if tc.depth {
				cfg = core.Config{MaxFieldDepth: 8}
			}
			dCfg := cfg
			dCfg.DisableCache = tc.disableCache
			dCfg.DisableCondense = tc.disableCond
			d := core.NewDynSum(g, dCfg, nil)

			if _, err := d.PointsTo(warmVar); err != nil {
				t.Fatalf("warm-up query failed: %v", err)
			}
			before := core.CacheDump(d)
			if !tc.disableCache && len(before) == 0 {
				t.Fatal("warm-up cached nothing; the rollback assertion would be vacuous")
			}

			_, err := d.PointsTo(victim)
			if tc.depth {
				// The load self-loop may exhaust either limiter first
				// depending on adjacency order; both are conservative.
				if !errors.Is(err, core.ErrDepth) && !errors.Is(err, core.ErrBudget) {
					t.Fatalf("err = %v, want depth/budget error", err)
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}

			after := core.CacheDump(d)
			if len(before) != len(after) {
				t.Fatalf("aborted query changed cache size: %d -> %d entries\nbefore: %v\nafter: %v",
					len(before), len(after), before, after)
			}
			for i := range before {
				if before[i] != after[i] {
					t.Errorf("cache entry %d changed:\nbefore: %s\nafter:  %s", i, before[i], after[i])
				}
			}
		})
	}
}

// TestInvalidateMethodUsesIndex pins the index bookkeeping: invalidating a
// method drops exactly its entries (write-backs included), leaves other
// methods' summaries untouched, and shrinks the index accordingly, so
// repeated edit/invalidate cycles cannot leak index memory.
func TestInvalidateMethodUsesIndex(t *testing.T) {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	for _, q := range []pag.NodeID{f.S1, f.S2} {
		if _, err := d.PointsTo(q); err != nil {
			t.Fatal(err)
		}
	}
	total := d.SummaryCount()
	if got := core.MethodIndexSize(d); got < total {
		t.Fatalf("method index holds %d keys, cache %d entries", got, total)
	}
	m := f.Prog.G.Node(f.TAdd).Method
	dropped := core.InvalidateMethod(d, m)
	if dropped == 0 {
		t.Fatal("invalidation dropped nothing")
	}
	if got := d.SummaryCount(); got != total-dropped {
		t.Errorf("SummaryCount = %d, want %d", got, total-dropped)
	}
	if core.InvalidateMethod(d, m) != 0 {
		t.Error("second invalidation of the same method dropped entries")
	}
	// Re-warming repopulates both cache and index; answers stay correct.
	pts, err := d.PointsTo(f.S1)
	if err != nil {
		t.Fatal(err)
	}
	if !pts.HasObject(f.O26) {
		t.Errorf("post-invalidation pts(s1) = %v", pts.FormatObjects(f.Prog.G))
	}
}
