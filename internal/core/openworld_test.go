package core_test

import (
	"errors"
	"testing"

	"dynsum/internal/core"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
)

// owFixture is a miniature library program:
//
//	Main.main: a = new C(o1); v = new C(o2); a.f = v;
//	           r1 = a.get(); r2 = mk(); G = a
//	Lib.get(this) { return this.f }     -> oracle pts(r1) = {o2}
//	Lib.mk()      { return new C(om) }  -> oracle pts(r2) = {om}
type owFixture struct {
	oracle          *pag.Graph
	get, mk         pag.MethodID
	fldF            pag.FieldID
	o1, o2, om      pag.NodeID
	a, v, r1, r2    pag.NodeID
	glob            pag.NodeID
	getThis, getRet pag.NodeID
	mkRet           pag.NodeID
}

func buildOWFixture(t *testing.T) *owFixture {
	t.Helper()
	fx := &owFixture{oracle: pag.NewGraph()}
	g := fx.oracle
	cls := g.AddClass("C", pag.NoClass)
	fx.fldF = g.AddField("f")
	main := g.AddMethod("Main.main", cls)
	fx.get = g.AddMethod("Lib.get", cls)
	fx.mk = g.AddMethod("Lib.mk", cls)

	fx.glob = g.AddNode(pag.Global, pag.NoMethod, pag.NoClass, "G")
	fx.o1 = g.AddNode(pag.Object, main, cls, "o1")
	fx.o2 = g.AddNode(pag.Object, main, cls, "o2")
	fx.a = g.AddNode(pag.Local, main, cls, "a")
	fx.v = g.AddNode(pag.Local, main, cls, "v")
	fx.r1 = g.AddNode(pag.Local, main, cls, "r1")
	fx.r2 = g.AddNode(pag.Local, main, cls, "r2")
	fx.getThis = g.AddNode(pag.Local, fx.get, cls, "this")
	fx.getRet = g.AddNode(pag.Local, fx.get, cls, "ret")
	fx.mkRet = g.AddNode(pag.Local, fx.mk, cls, "ret")
	fx.om = g.AddNode(pag.Object, fx.mk, cls, "om")

	g.AddEdge(pag.Edge{Src: fx.o1, Dst: fx.a, Kind: pag.New, Label: pag.NoLabel})
	g.AddEdge(pag.Edge{Src: fx.o2, Dst: fx.v, Kind: pag.New, Label: pag.NoLabel})
	g.AddEdge(pag.Edge{Src: fx.v, Dst: fx.a, Kind: pag.Store, Label: int32(fx.fldF)})
	g.AddEdge(pag.Edge{Src: fx.a, Dst: fx.glob, Kind: pag.AssignGlobal, Label: pag.NoLabel})
	csGet := g.AddCallSite(main, "main:get")
	g.AddCallTarget(csGet, fx.get)
	g.AddEdge(pag.Edge{Src: fx.a, Dst: fx.getThis, Kind: pag.Entry, Label: int32(csGet)})
	g.AddEdge(pag.Edge{Src: fx.getRet, Dst: fx.r1, Kind: pag.Exit, Label: int32(csGet)})
	csMk := g.AddCallSite(main, "main:mk")
	g.AddCallTarget(csMk, fx.mk)
	g.AddEdge(pag.Edge{Src: fx.mkRet, Dst: fx.r2, Kind: pag.Exit, Label: int32(csMk)})
	g.AddEdge(pag.Edge{Src: fx.getThis, Dst: fx.getRet, Kind: pag.Load, Label: int32(fx.fldF)})
	g.AddEdge(pag.Edge{Src: fx.om, Dst: fx.mkRet, Kind: pag.New, Label: pag.NoLabel})

	g.ResolveDerived()
	if err := g.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return fx
}

// engineMode is one cell of the four-mode matrix the open-world model must
// serve identically: summary cache on/off × condensed/base adjacency.
type engineMode struct {
	name                string
	noCache, noCondense bool
}

func engineModes() []engineMode {
	return []engineMode{
		{"cache+condensed", false, false},
		{"cache+base", false, true},
		{"nocache+condensed", true, false},
		{"nocache+base", true, true},
	}
}

// strippedEngine builds the open-world counterpart (Lib bodies deleted,
// frozen) and an engine over it.
func (fx *owFixture) strippedEngine(t *testing.T, mode engineMode, policy core.OpenWorldPolicy) (*pag.Graph, *core.DynSum) {
	t.Helper()
	stripped, err := openworld.StripBodies(fx.oracle, []pag.MethodID{fx.get, fx.mk})
	if err != nil {
		t.Fatalf("StripBodies: %v", err)
	}
	stripped.Freeze()
	dCfg := core.Config{}
	dCfg.DisableCache = mode.noCache
	dCfg.DisableCondense = mode.noCondense
	d := core.NewDynSum(stripped, dCfg, nil)
	d.EnableOpenWorld(policy)
	return stripped, d
}

func TestOpenWorldBlendedSoundness(t *testing.T) {
	fx := buildOWFixture(t)
	for _, mode := range engineModes() {
		stripped, d := fx.strippedEngine(t, mode, core.PolicyBlended)
		getInfo, _ := stripped.Bodyless(fx.get)
		mkInfo, _ := stripped.Bodyless(fx.mk)

		// r1 = a.get(): the oracle answer {o2} must survive, plus the blob.
		pts, err := d.PointsTo(fx.r1)
		if err != nil {
			t.Fatalf("mode %s: PointsTo(r1): %v", mode.name, err)
		}
		if !pts.HasObject(fx.o2) {
			t.Errorf("mode %s: blended pts(r1) misses oracle object o2: %s",
				mode.name, pts.FormatObjects(stripped))
		}
		if !pts.HasObject(getInfo.BlobObj) {
			t.Errorf("mode %s: blended pts(r1) misses Lib.get's blob: %s",
				mode.name, pts.FormatObjects(stripped))
		}

		// r2 = mk(): the deleted allocation is covered by the blob object.
		pts2, err := d.PointsTo(fx.r2)
		if err != nil {
			t.Fatalf("mode %s: PointsTo(r2): %v", mode.name, err)
		}
		if !pts2.HasObject(mkInfo.BlobObj) {
			t.Errorf("mode %s: blended pts(r2) misses Lib.mk's blob: %s",
				mode.name, pts2.FormatObjects(stripped))
		}

		// Closed-world behaviour away from bodyless methods is untouched.
		ptsA, err := d.PointsTo(fx.a)
		if err != nil {
			t.Fatal(err)
		}
		if !ptsA.HasObject(fx.o1) {
			t.Errorf("mode %s: pts(a) misses o1", mode.name)
		}
		if d.Metrics().BlendedSummaries == 0 {
			t.Errorf("mode %s: no blended summaries recorded", mode.name)
		}
		if got := d.OpenWorldActive(); len(got) != 2 {
			t.Errorf("mode %s: active = %v, want both lib methods", mode.name, got)
		}
	}
}

func TestOpenWorldSpecOnlyRefuses(t *testing.T) {
	fx := buildOWFixture(t)
	_, d := fx.strippedEngine(t, engineModes()[0], core.PolicySpecOnly)
	_, err := d.PointsTo(fx.r1)
	var nse *core.NoSpecError
	if !errors.As(err, &nse) {
		t.Fatalf("PointsTo(r1) = %v, want *NoSpecError", err)
	}
	if nse.Method != fx.get || nse.Name != "Lib.get" {
		t.Fatalf("NoSpecError = %+v", nse)
	}
	// Queries that never reach a bodyless method still succeed.
	if _, err := d.PointsTo(fx.a); err != nil {
		t.Fatalf("PointsTo(a): %v", err)
	}
}

func TestOpenWorldPessimisticSuperset(t *testing.T) {
	fx := buildOWFixture(t)
	stripped, d := fx.strippedEngine(t, engineModes()[0], core.PolicyPessimistic)
	getInfo, _ := stripped.Bodyless(fx.get)
	mkInfo, _ := stripped.Bodyless(fx.mk)
	pts, err := d.PointsTo(fx.r1)
	if err != nil {
		t.Fatal(err)
	}
	// Pessimistic merges all blended summaries: r1 sees both blobs and the
	// oracle object.
	for _, want := range []pag.NodeID{fx.o2, getInfo.BlobObj, mkInfo.BlobObj} {
		if !pts.HasObject(want) {
			t.Errorf("pessimistic pts(r1) misses %s: %s",
				stripped.NodeString(want), pts.FormatObjects(stripped))
		}
	}
}

func TestOpenWorldApplySpecsExact(t *testing.T) {
	fx := buildOWFixture(t)
	for _, mode := range engineModes() {
		stripped, d := fx.strippedEngine(t, mode, core.PolicySpecOnly)

		specs, err := openworld.DeriveSpecs(fx.oracle, stripped)
		if err != nil {
			t.Fatal(err)
		}
		resolved, err := openworld.Resolve(stripped, specs)
		if err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		if len(resolved.Exact) != 2 || len(resolved.Blended) != 0 {
			t.Fatalf("derived exact=%v blended=%v", resolved.Exact, resolved.Blended)
		}
		if _, err := d.ApplySpecs(resolved.Edges, resolved.Exact); err != nil {
			t.Fatalf("ApplySpecs: %v", err)
		}
		if got := d.OpenWorldActive(); len(got) != 0 {
			t.Fatalf("mode %s: active after specs = %v, want none", mode.name, got)
		}

		// Spec'd answers are exact up to blob-for-deleted-allocation: r1's
		// flow never allocates in Lib.get, so it is literally the oracle's.
		pts, err := d.PointsTo(fx.r1)
		if err != nil {
			t.Fatalf("mode %s: PointsTo(r1) after specs: %v", mode.name, err)
		}
		if got := pts.Objects(); len(got) != 1 || got[0] != fx.o2 {
			t.Errorf("mode %s: spec'd pts(r1) = %s, want exactly {o2}",
				mode.name, pts.FormatObjects(stripped))
		}
		// r2's oracle object om was allocated in the deleted body: the spec
		// substitutes Lib.mk's blob, and nothing else.
		mkInfo, _ := stripped.Bodyless(fx.mk)
		pts2, err := d.PointsTo(fx.r2)
		if err != nil {
			t.Fatal(err)
		}
		if got := pts2.Objects(); len(got) != 1 || got[0] != mkInfo.BlobObj {
			t.Errorf("mode %s: spec'd pts(r2) = %s, want exactly {Lib.mk #blob}",
				mode.name, pts2.FormatObjects(stripped))
		}
	}
}

// TestOpenWorldBodyArrives is the delta-evolution case: a bodyless method
// gains its real body through an epoch, leaves blended treatment, and exact
// answers resume without specs.
func TestOpenWorldBodyArrives(t *testing.T) {
	fx := buildOWFixture(t)
	_, d := fx.strippedEngine(t, engineModes()[0], core.PolicyBlended)

	if got := len(d.OpenWorldActive()); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}
	log, err := d.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	// Deliver Lib.get's real body (the oracle's load).
	log.AddEdge(pag.Edge{Src: fx.getThis, Dst: fx.getRet, Kind: pag.Load, Label: int32(fx.fldF)})
	if _, err := d.ApplyDelta(log); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if got := d.OpenWorldActive(); len(got) != 1 || got[0] != fx.mk {
		t.Fatalf("active after body arrival = %v, want [Lib.mk]", got)
	}
	pts, err := d.PointsTo(fx.r1)
	if err != nil {
		t.Fatal(err)
	}
	if got := pts.Objects(); len(got) != 1 || got[0] != fx.o2 {
		t.Errorf("pts(r1) after body arrival = %v, want exactly {o2}", got)
	}
}
