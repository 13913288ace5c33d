package core_test

import (
	"testing"

	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

// editedFresh builds a cold engine from scratch on the program warm has
// evolved to: the overlay merged into a newly frozen graph.
func editedFresh(t *testing.T, warm *core.DynSum) (*core.DynSum, *pag.Graph) {
	t.Helper()
	g, err := warm.Overlay().Compact()
	if err != nil {
		t.Fatal(err)
	}
	return core.NewDynSum(g, core.Config{}, warm.Ctxs()), g
}

// TestIncrementalEditInvalidation models the IDE scenario the paper
// motivates (§1, §7): after a method is redefined through a delta epoch,
// invalidating just that method's summaries restores exact answers, while
// the rest of the warm cache keeps being reused.
func TestIncrementalEditInvalidation(t *testing.T) {
	f := fixture.BuildFigure2()
	g := f.Prog.G

	warm := core.NewDynSum(g, core.Config{}, nil)
	// Warm the cache on the motivating queries.
	if _, err := warm.PointsTo(f.S1); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.PointsTo(f.S2); err != nil {
		t.Fatal(err)
	}

	// "Edit" Vector.add: its body is redefined to the old statements plus
	// a second store path into the object array (t2 aliases t).
	addMethod := g.Node(f.TAdd).Method
	log, err := warm.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	log.RedefineMethod(addMethod)
	for n := 0; n < g.NumNodes(); n++ {
		if g.Node(pag.NodeID(n)).Method != addMethod {
			continue
		}
		for _, e := range g.LocalOut(pag.NodeID(n)) {
			log.AddEdge(e)
		}
	}
	t2 := log.AddNode(pag.Local, addMethod, pag.NoClass, "t2")
	log.AddEdge(pag.Edge{Src: f.ThisAdd, Dst: t2, Kind: pag.Load, Label: int32(f.Elems)})
	log.AddEdge(pag.Edge{Src: f.PAdd, Dst: t2, Kind: pag.Store, Label: int32(f.Arr)})
	res, err := warm.ApplyDelta(log)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalidatedSummaries == 0 {
		t.Fatal("no summaries invalidated for the edited method")
	}

	fresh, eg := editedFresh(t, warm)
	before := warm.Metrics().Snapshot()
	for _, q := range []pag.NodeID{f.S1, f.S2, f.PAdd, f.RetGet} {
		a, errA := warm.PointsTo(q)
		b, errB := fresh.PointsTo(q)
		if errA != nil || errB != nil {
			t.Fatalf("query %s: %v / %v", eg.NodeString(q), errA, errB)
		}
		if !a.Equal(b) {
			t.Errorf("query %s: warm-after-edit %s != fresh %s",
				eg.NodeString(q), a.FormatObjects(eg), b.FormatObjects(eg))
		}
	}

	// The unedited methods' summaries must still be reused.
	if m := warm.Metrics().Snapshot(); m.CacheHits == before.CacheHits {
		t.Error("invalidation wiped unrelated summaries")
	}
}

// TestGlobalEdgeEditNeedsNoInvalidation: summaries cover only local
// closure, so an epoch that adds only global (call) edges changes answers
// without invalidating anything — the driver reads global edges live.
func TestGlobalEdgeEditNeedsNoInvalidation(t *testing.T) {
	f := fixture.BuildFigure2()
	g := f.Prog.G
	warm := core.NewDynSum(g, core.Config{}, nil)
	before, err := warm.PointsTo(f.PAdd)
	if err != nil {
		t.Fatal(err)
	}

	// New call site: v1.add(c1) — the Client object o27 now flows into p,
	// which no existing call site provided.
	log, err := warm.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	cs := log.AddCallSite(pag.CallSite{Caller: g.Node(f.S2).Method, Name: "Main.main:new"})
	log.AddEdge(pag.Edge{Src: f.V1, Dst: f.ThisAdd, Kind: pag.Entry, Label: int32(cs)})
	log.AddEdge(pag.Edge{Src: f.C1, Dst: f.PAdd, Kind: pag.Entry, Label: int32(cs)})
	res, err := warm.ApplyDelta(log)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalidatedSummaries != 0 || len(res.TouchedMethods) != 0 {
		t.Errorf("global-only edit invalidated %d summaries (touched %v), want none",
			res.InvalidatedSummaries, res.TouchedMethods)
	}

	after, err := warm.PointsTo(f.PAdd)
	if err != nil {
		t.Fatal(err)
	}
	if !after.HasObject(f.O27) {
		t.Errorf("new call edge not observed: %s", after.FormatObjects(g))
	}
	if after.Len() <= before.Len() {
		t.Error("points-to set did not grow after adding a call edge")
	}

	fresh, eg := editedFresh(t, warm)
	want, err := fresh.PointsTo(f.PAdd)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(want) {
		t.Errorf("warm engine after global edit %s != fresh %s",
			after.FormatObjects(eg), want.FormatObjects(eg))
	}
}
