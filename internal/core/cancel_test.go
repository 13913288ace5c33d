package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dynsum/internal/core"
	"dynsum/internal/faultinject"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// segmentedChain builds segs methods of seg-long local assign chains
// linked through globals, so a backward traversal from the query
// alternates PPTA runs (~seg edges each) with driver tuples — the shape
// that lets a Tracer-driven cancellation land between runs of work.
func segmentedChain(segs, seg int) (*pag.Program, pag.NodeID) {
	b := pag.NewBuilder()
	cls := b.Class("A", pag.NoClass)
	var carry pag.NodeID
	var v pag.NodeID
	for s := 0; s < segs; s++ {
		m := b.Method(fmt.Sprintf("M.seg%d", s), cls)
		v = b.Local(m, "v0", cls)
		if s == 0 {
			b.NewObject(v, "o", cls)
		} else {
			b.Copy(v, carry)
		}
		for i := 1; i < seg; i++ {
			next := b.Local(m, fmt.Sprintf("v%d", i), cls)
			b.Copy(next, v)
			v = next
		}
		if s < segs-1 {
			g := b.GlobalVar(fmt.Sprintf("A.G%d", s), cls)
			b.Copy(g, v)
			carry = g
		}
	}
	b.G.Freeze()
	return pag.NewProgram("segmented", b.G), v
}

// TestCancelBeforeQuery: a context that is already done aborts the query
// up front — no traversal, ErrCanceled, and the context's own cause
// visible through errors.Is.
func TestCancelBeforeQuery(t *testing.T) {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	pts, err := queryIn(ctx, d, f.S1, intstack.Empty)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, does not match context.Canceled", err)
	}
	if pts.Len() != 0 {
		t.Errorf("pre-canceled query returned %d objects, want 0", pts.Len())
	}
	m := d.Metrics().Snapshot()
	if m.EdgesTraversed != 0 {
		t.Errorf("pre-canceled query traversed %d edges, want 0", m.EdgesTraversed)
	}
	if m.Queries != 1 || m.Failed != 1 {
		t.Errorf("metrics queries=%d failed=%d, want 1/1", m.Queries, m.Failed)
	}
}

// TestCancelDeadline: an expired deadline surfaces as ErrCanceled AND as
// context.DeadlineExceeded — the wrapper carries the context's cause.
func TestCancelDeadline(t *testing.T) {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()

	_, err := queryIn(ctx, d, f.S1, intstack.Empty)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, does not match context.DeadlineExceeded", err)
	}
}

// TestCancelMidFlightPrompt: a cancellation arriving during the traversal
// stops it within one cancel-check interval of budget steps, not at the
// end of the chain. The Tracer cancels on the first event, so everything
// traversed past the first check interval would be a promptness bug.
func TestCancelMidFlightPrompt(t *testing.T) {
	const segs, seg = 128, 64 // ~8k edges total, trace events every ~64
	prog, query := segmentedChain(segs, seg)
	d := core.NewDynSum(prog.G, core.Config{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.Tracer = func(core.TraceEvent) { cancel() }

	pts, err := queryIn(ctx, d, query, intstack.Empty)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	met := d.Metrics().Snapshot()
	// Cancel fires on the first traced event (after the first ~seg-edge
	// PPTA run); cooperative polling allows up to one full interval (256
	// steps) plus slack before the abort lands. Traversing a quarter of
	// the chain would mean the poll is not happening.
	if met.EdgesTraversed > 2048 {
		t.Errorf("canceled query traversed %d of ~%d edges; cancellation was not prompt",
			met.EdgesTraversed, segs*seg)
	}
	// The partial set is a sound under-approximation: whatever is in it
	// must also be in the uncanceled answer.
	d2 := core.NewDynSum(prog.G, core.Config{}, nil)
	full, err := queryIn(nil, d2, query, intstack.Empty)
	if err != nil {
		t.Fatal(err)
	}
	if !pts.ObjectsSubsetOf(full) {
		t.Errorf("partial set is not a subset of the full answer: partial %v, full %v",
			pts.Objects(), full.Objects())
	}
}

// TestCancelThenReuse: after a canceled query the engine answers the same
// query cleanly and identically to a never-canceled engine — cancellation
// leaves no residue in cache or pool.
func TestCancelThenReuse(t *testing.T) {
	prog, query := segmentedChain(64, 64)
	d := core.NewDynSum(prog.G, core.Config{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	d.Tracer = func(core.TraceEvent) { cancel() }
	if _, err := queryIn(ctx, d, query, intstack.Empty); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("setup: err = %v, want ErrCanceled", err)
	}
	d.Tracer = nil

	got, err := queryIn(nil, d, query, intstack.Empty)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewDynSum(prog.G, core.Config{}, nil)
	want, err := queryIn(nil, oracle, query, intstack.Empty)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameObjects(want) {
		t.Errorf("post-cancel answer diverged from a fresh engine")
	}
	if err := d.CheckIntegrity(); err != nil {
		t.Errorf("CheckIntegrity after cancel: %v", err)
	}
}

// TestIsPartial: the partial-abort class is exactly budget, depth and
// cancellation; panics and nil are not.
func TestIsPartial(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{core.ErrBudget, true},
		{core.ErrDepth, true},
		{core.ErrCanceled, true},
		{nil, false},
		{errors.New("other"), false},
	} {
		if got := core.IsPartial(tc.err); got != tc.want {
			t.Errorf("IsPartial(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestQueryPanicQuarantine: a panic injected inside the PPTA surfaces as
// a typed *QueryPanicError whose cause chain reaches the injected
// *faultinject.Fault, leaves the cache byte-identical, and the engine
// answers the same query correctly afterwards.
func TestQueryPanicQuarantine(t *testing.T) {
	f := fixture.BuildFigure2()
	oracle := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	want, err := queryIn(nil, oracle, f.S1, intstack.Empty)
	if err != nil {
		t.Fatal(err)
	}

	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	before := core.CacheDump(d)

	s := faultinject.NewSchedule()
	s.Arm(faultinject.PPTAExpand, 1)
	faultinject.Activate(s)
	defer faultinject.Deactivate()

	_, err = queryIn(nil, d, f.S1, intstack.Empty)
	var qp *core.QueryPanicError
	if !errors.As(err, &qp) {
		t.Fatalf("err = %v (%T), want *QueryPanicError", err, err)
	}
	if qp.Var != f.S1 {
		t.Errorf("QueryPanicError.Var = %d, want %d", qp.Var, f.S1)
	}
	if len(qp.Stack) == 0 {
		t.Error("QueryPanicError carries no stack")
	}
	var flt *faultinject.Fault
	if !errors.As(err, &flt) {
		t.Fatalf("cause chain of %v does not reach *faultinject.Fault", err)
	}
	if flt.Point != faultinject.PPTAExpand {
		t.Errorf("fault fired at %v, want PPTAExpand", flt.Point)
	}
	if core.IsPartial(err) {
		t.Error("a quarantined panic must not be classified as a partial abort")
	}

	after := core.CacheDump(d)
	if len(after) != len(before) {
		t.Fatalf("panicked query changed the cache: %d -> %d entries", len(before), len(after))
	}
	if err := d.CheckIntegrity(); err != nil {
		t.Errorf("CheckIntegrity after panic: %v", err)
	}

	faultinject.Deactivate()
	got, err := queryIn(nil, d, f.S1, intstack.Empty)
	if err != nil {
		t.Fatalf("re-query after quarantined panic: %v", err)
	}
	if !got.SameObjects(want) {
		t.Errorf("post-panic answer diverged from the oracle")
	}
}

// TestRetryPolicyEscalates: a query that exhausts a small budget succeeds
// under a RetryPolicy once the escalation crosses the chain's real cost,
// and the answer matches an unconstrained engine's.
func TestRetryPolicyEscalates(t *testing.T) {
	m := fixture.AssignChain(50)
	d := core.NewDynSum(m.Prog.G, core.Config{Budget: 10}, nil)
	if _, err := d.PointsTo(m.Query); !errors.Is(err, core.ErrBudget) {
		t.Fatalf("setup: err = %v, want ErrBudget at budget 10", err)
	}

	p := core.RetryPolicy{MaxAttempts: 4, Budget: 10, BudgetScale: 4}
	pts, attempts, err := p.PointsTo(context.Background(), d, m.Query, intstack.Empty)
	if err != nil {
		t.Fatalf("retry: %v after %d attempts", err, attempts)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want at least one escalation", attempts)
	}
	oracle := core.NewDynSum(m.Prog.G, core.Config{}, nil)
	want, err := oracle.PointsTo(m.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !pts.SameObjects(want) {
		t.Errorf("retried answer diverged from the unconstrained oracle")
	}
}

// TestRetryPolicyDoesNotRetryCancel: cancellation is the client's own
// decision — the policy returns it on the first attempt.
func TestRetryPolicyDoesNotRetryCancel(t *testing.T) {
	m := fixture.AssignChain(50)
	d := core.NewDynSum(m.Prog.G, core.Config{Budget: 10}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := core.RetryPolicy{MaxAttempts: 5, Budget: 10}
	_, attempts, err := p.PointsTo(ctx, d, m.Query, intstack.Empty)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on cancellation)", attempts)
	}
}

// queryIn answers one query on d into a fresh set (the allocating form of
// DynSum.Query).
func queryIn(ctx context.Context, d *core.DynSum, v pag.NodeID, cc intstack.ID) (*core.PointsToSet, error) {
	pts := core.NewPointsToSet()
	err := d.Query(ctx, pts, v, cc)
	return pts, err
}
