package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dynsum/internal/core"
	"dynsum/internal/faultinject"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// queriesFor builds empty-context queries for every interesting Figure 2
// variable.
func figure2Queries(f *fixture.Figure2) []core.Query {
	vars := []pag.NodeID{f.S1, f.S2, f.PAdd, f.TGet, f.V1, f.V2, f.RetGet}
	qs := make([]core.Query, len(vars))
	for i, v := range vars {
		qs[i] = core.Query{Var: v, Ctx: intstack.Empty}
	}
	return qs
}

// TestBatchMatchesSerial: BatchPointsTo must return, position by position,
// exactly what a serial Query returns, at every worker count.
func TestBatchMatchesSerial(t *testing.T) {
	f := fixture.BuildFigure2()
	queries := figure2Queries(f)

	serial := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	want := make([]*core.PointsToSet, len(queries))
	for i, q := range queries {
		pts, err := queryIn(nil, serial, q.Var, q.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pts
	}

	for _, workers := range []int{0, 1, 2, 4, 17} {
		d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
		results := d.BatchPointsTo(nil, queries, workers)
		if len(results) != len(queries) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(results), len(queries))
		}
		for i, r := range results {
			if r.Var != queries[i].Var || r.Ctx != queries[i].Ctx {
				t.Errorf("workers=%d: result %d misaligned: %+v", workers, i, r)
			}
			if r.Err != nil {
				t.Errorf("workers=%d: query %d: %v", workers, i, r.Err)
				continue
			}
			if !r.Pts.SameObjects(want[i]) {
				t.Errorf("workers=%d: pts(query %d) = %s, serial %s", workers, i,
					r.Pts.FormatObjects(f.Prog.G), want[i].FormatObjects(f.Prog.G))
			}
		}
	}
}

// TestBatchEmpty: a nil/empty batch returns an empty, non-nil slice.
func TestBatchEmpty(t *testing.T) {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	if got := d.BatchPointsTo(nil, nil, 4); len(got) != 0 {
		t.Errorf("BatchPointsTo(nil) = %v", got)
	}
}

// TestBatchPropagatesErrors: budget exhaustion surfaces per result, leaving
// the rest of the batch intact.
func TestBatchPropagatesErrors(t *testing.T) {
	m := fixture.AssignChain(50)
	d := core.NewDynSum(m.Prog.G, core.Config{Budget: 10}, nil)
	queries := []core.Query{{Var: m.Query, Ctx: intstack.Empty}, {Var: m.Query, Ctx: intstack.Empty}}
	results := d.BatchPointsTo(nil, queries, 2)
	for i, r := range results {
		if !errors.Is(r.Err, core.ErrBudget) {
			t.Errorf("result %d: err = %v, want ErrBudget", i, r.Err)
		}
	}
}

// TestBatchSharesSummaries: after a batch, the cache holds summaries and a
// repeat batch hits it — the Figure 4 amortisation across the worker pool.
func TestBatchSharesSummaries(t *testing.T) {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	queries := figure2Queries(f)
	d.BatchPointsTo(nil, queries, 4)
	if d.SummaryCount() == 0 {
		t.Fatal("no summaries cached after batch")
	}
	before := d.Metrics().Snapshot()
	d.BatchPointsTo(nil, queries, 4)
	after := d.Metrics().Snapshot()
	if after.CacheHits <= before.CacheHits {
		t.Errorf("repeat batch reused no summaries: hits %d -> %d", before.CacheHits, after.CacheHits)
	}
	if after.Summaries != before.Summaries {
		t.Errorf("repeat batch recomputed summaries: %d -> %d", before.Summaries, after.Summaries)
	}
}

// TestBatchConcurrentWithPointForQueries: overlapping batches and direct
// Query calls on one engine must all give serial answers; run under
// -race this exercises the sharded cache, atomic metrics, and concurrent
// stack interning.
func TestBatchConcurrentWithPointForQueries(t *testing.T) {
	f := fixture.BuildFigure2()
	queries := figure2Queries(f)

	serial := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	want := make([]*core.PointsToSet, len(queries))
	for i, q := range queries {
		pts, err := queryIn(nil, serial, q.Var, q.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pts
	}

	shared := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	var wg sync.WaitGroup
	const rounds = 4
	batchResults := make([][]core.Result, rounds)
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			batchResults[r] = shared.BatchPointsTo(nil, queries, 3)
		}(r)
	}
	directErrs := make([]error, len(queries))
	directPts := make([]*core.PointsToSet, len(queries))
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			directPts[i], directErrs[i] = queryIn(nil, shared, queries[i].Var, queries[i].Ctx)
		}(i)
	}
	wg.Wait()

	for r := 0; r < rounds; r++ {
		for i, res := range batchResults[r] {
			if res.Err != nil {
				t.Fatalf("round %d query %d: %v", r, i, res.Err)
			}
			if !res.Pts.SameObjects(want[i]) {
				t.Errorf("round %d: pts(query %d) diverged from serial", r, i)
			}
		}
	}
	for i := range queries {
		if directErrs[i] != nil {
			t.Fatalf("direct query %d: %v", i, directErrs[i])
		}
		if !directPts[i].SameObjects(want[i]) {
			t.Errorf("direct query %d diverged from serial", i)
		}
	}
}

// goroutineStable waits until the process goroutine count settles back to
// at most base, failing the test if it never does — the leak assertion
// batch execution must satisfy after every call, completed or canceled.
func goroutineStable(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine count stuck at %d, want <= %d: worker leak", runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchNoGoroutineLeak: a completed batch leaves no worker goroutines
// behind at any worker count.
func TestBatchNoGoroutineLeak(t *testing.T) {
	f := fixture.BuildFigure2()
	queries := figure2Queries(f)
	base := runtime.NumGoroutine()
	for _, workers := range []int{2, 4, 16} {
		d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
		d.BatchPointsTo(nil, queries, workers)
	}
	goroutineStable(t, base)
}

// TestBatchCancelPreCanceled: an already-done context drains the whole
// batch without traversal — every slot populated, aligned, ErrCanceled,
// Partial, and no goroutine leaked.
func TestBatchCancelPreCanceled(t *testing.T) {
	f := fixture.BuildFigure2()
	queries := figure2Queries(f)
	base := runtime.NumGoroutine()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	results := d.BatchPointsTo(ctx, queries, 4)
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		if r.Var != queries[i].Var || r.Ctx != queries[i].Ctx {
			t.Errorf("result %d misaligned: %+v", i, r)
		}
		if !errors.Is(r.Err, core.ErrCanceled) {
			t.Errorf("result %d: err = %v, want ErrCanceled", i, r.Err)
		}
		if !r.Partial {
			t.Errorf("result %d: canceled result not marked Partial", i)
		}
	}
	if m := d.Metrics().Snapshot(); m.EdgesTraversed != 0 {
		t.Errorf("drained batch traversed %d edges, want 0", m.EdgesTraversed)
	}
	goroutineStable(t, base)
}

// TestBatchCancelMidFlight: cancellation arriving while workers are
// traversing drains the pool promptly — every slot is populated and each
// result is either a clean answer or a Partial cancellation; nothing
// leaks.
func TestBatchCancelMidFlight(t *testing.T) {
	f := fixture.BuildFigure2()
	var queries []core.Query
	for i := 0; i < 64; i++ {
		queries = append(queries, figure2Queries(f)...)
	}
	base := runtime.NumGoroutine()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	d.Tracer = func(core.TraceEvent) { once.Do(cancel) }

	results := d.BatchPointsTo(ctx, queries, 4)
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	canceled := 0
	for i, r := range results {
		if r.Var != queries[i].Var {
			t.Errorf("result %d misaligned", i)
		}
		switch {
		case r.Err == nil:
			if r.Pts == nil {
				t.Errorf("result %d: clean result with nil set", i)
			}
		case errors.Is(r.Err, core.ErrCanceled):
			canceled++
			if !r.Partial {
				t.Errorf("result %d: canceled result not marked Partial", i)
			}
		default:
			t.Errorf("result %d: unexpected error %v", i, r.Err)
		}
	}
	if canceled == 0 {
		t.Error("cancellation mid-batch produced no canceled results")
	}
	goroutineStable(t, base)
}

// TestBatchPanicIsolation: a panic injected into one worker's traversal
// lands as a typed *QueryPanicError in that query's slot; the rest of the
// batch completes, the WaitGroup is released, and no goroutine leaks.
func TestBatchPanicIsolation(t *testing.T) {
	f := fixture.BuildFigure2()
	queries := figure2Queries(f)
	base := runtime.NumGoroutine()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)

	s := faultinject.NewSchedule()
	s.Arm(faultinject.PPTAExpand, 1)
	faultinject.Activate(s)
	defer faultinject.Deactivate()

	results := d.BatchPointsTo(nil, queries, 4)
	faultinject.Deactivate()

	panicked := 0
	for i, r := range results {
		var qp *core.QueryPanicError
		switch {
		case errors.As(r.Err, &qp):
			panicked++
			if r.Pts != nil {
				t.Errorf("result %d: panicked query returned a non-nil set", i)
			}
			if r.Partial {
				t.Errorf("result %d: panicked query marked Partial", i)
			}
		case r.Err != nil:
			t.Errorf("result %d: unexpected error %v", i, r.Err)
		}
	}
	if panicked != 1 {
		t.Errorf("injected exactly one fault, got %d panicked results", panicked)
	}
	if err := d.CheckIntegrity(); err != nil {
		t.Errorf("CheckIntegrity after batch panic: %v", err)
	}
	// The engine keeps answering: rerun the batch cleanly.
	for i, r := range d.BatchPointsTo(nil, queries, 4) {
		if r.Err != nil {
			t.Errorf("rerun result %d: %v", i, r.Err)
		}
	}
	goroutineStable(t, base)
}
