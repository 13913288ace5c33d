package enginetest

import (
	"fmt"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/check"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file is the dynamic-evolution equivalence sweep: a program replayed
// as a load order (K waves of methods/nodes/edges with queries in between)
// through the delta overlay must answer every query, after every wave,
// exactly like an engine built from scratch on the full prefix graph —
// frozen, condensed, memoised, the works. That per-wave identity is the
// soundness contract of the whole subsystem: overlay resolution, local
// condensation repair, and targeted summary invalidation all sit between
// the two engines being compared.

// evolveVariants are the engine modes replayed side by side: the full
// fast path, the base-adjacency path (condensation disabled), and the
// cache-disabled oracle configuration.
type evolveVariant struct {
	name            string
	disableCondense bool
	disableCache    bool
}

var evolveVariants = []evolveVariant{
	{"memo+condensed", false, false},
	{"memo+base", true, false},
	{"nocache+condensed", false, true},
}

// replayEquivalence replays ev on one engine per variant, and after every
// wave compares each against a from-scratch engine on the rebuilt prefix.
// queryVars selects the per-wave query batch from the prefix program.
func replayEquivalence(t *testing.T, tag string, ev *benchgen.EvolveProgram,
	queryVars func(prefix *pag.Program) []pag.NodeID) {
	t.Helper()
	ctxs := new(intstack.Table)
	cfg := bigBudget
	cfg.CompactFraction = -1 // keep the overlay live across all waves
	engines := make([]*core.DynSum, len(evolveVariants))
	for i, v := range evolveVariants {
		dCfg := cfg
		dCfg.DisableCondense = v.disableCondense
		dCfg.DisableCache = v.disableCache
		d := core.NewDynSum(ev.Base.G, dCfg, ctxs)
		engines[i] = d
	}
	// Structural firewall: the overlay must keep the frozen base arrays
	// byte-untouched across every epoch; fingerprint them once, post-freeze.
	baseFP := check.Fingerprint(ev.Base.G)

	for k := 0; k < ev.NumWaves(); k++ {
		if k > 0 {
			for i, d := range engines {
				log, err := d.NewDeltaLog()
				if err != nil {
					t.Fatalf("%s wave %d %s: NewDeltaLog: %v", tag, k, evolveVariants[i].name, err)
				}
				if err := ev.WaveLog(log, k); err != nil {
					t.Fatalf("%s wave %d %s: WaveLog: %v", tag, k, evolveVariants[i].name, err)
				}
				if _, err := d.ApplyDelta(log); err != nil {
					t.Fatalf("%s wave %d %s: ApplyDelta: %v", tag, k, evolveVariants[i].name, err)
				}
				ov := d.Overlay()
				if err := check.Overlay(ov, ov.BaseView(), ov.CondView(), ev.Base.G, baseFP); err != nil {
					t.Fatalf("%s wave %d %s: overlay validation: %v", tag, k, evolveVariants[i].name, err)
				}
				if err := check.Cache(d); err != nil {
					t.Fatalf("%s wave %d %s: cache validation: %v", tag, k, evolveVariants[i].name, err)
				}
			}
		}
		prefix, err := ev.BuildPrefix(k)
		if err != nil {
			t.Fatalf("%s wave %d: BuildPrefix: %v", tag, k, err)
		}
		ref := core.NewDynSum(prefix.G, bigBudget, ctxs)
		queried := map[pag.NodeID]bool{}
		for _, v := range queryVars(prefix) {
			if queried[v] {
				continue
			}
			queried[v] = true
			want, errW := ref.PointsTo(v)
			for i, d := range engines {
				got, errG := d.PointsTo(v)
				compareOn(t, fmt.Sprintf("%s wave %d %s", tag, k, evolveVariants[i].name),
					prefix.G, v, got, want, errG, errW, true)
			}
		}
		if len(queried) == 0 && k == ev.NumWaves()-1 {
			t.Errorf("%s: empty query sweep", tag)
		}
	}
}

// evolveNamer renders node names through an evolved engine's overlay (the
// base graph's table does not cover delta-added nodes).
type evolveNamer struct{ d *core.DynSum }

func (n evolveNamer) NodeString(id pag.NodeID) string { return n.d.Overlay().NodeString(id) }

// derefVars selects the NullDeref batch of a prefix program.
func derefVars(prefix *pag.Program) []pag.NodeID {
	var out []pag.NodeID
	for _, d := range prefix.Derefs {
		out = append(out, d.Var)
	}
	return out
}

// TestEvolveReplayEquivalenceBenchmarks runs the sweep on the generated
// workloads where each subsystem bites: the plain Table 3 shape, the
// cyclic profiles (SCC dissolution and repair), and the diamond profiles
// (memoisation write-backs surviving epochs).
func TestEvolveReplayEquivalenceBenchmarks(t *testing.T) {
	scale := 0.01
	if testing.Short() {
		scale = 0.004
	}
	profiles := []benchgen.Profile{
		benchgen.ProfileByNameMust("soot-c"),
		benchgen.ProfileByNameMust("soot-c-cyclic"),
		benchgen.ProfileByNameMust("bloat-cyclic"),
		benchgen.ProfileByNameMust("soot-c-diamond"),
	}
	for _, p := range profiles {
		ev, err := benchgen.GenerateEvolve(p.Scaled(scale), 7, benchgen.DefaultEvolveWaves)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		replayEquivalence(t, p.Name+"-evolve", ev, derefVars)
	}
}

// TestEvolveReplayEquivalenceRandomCorpus partitions the seeded random
// programs into waves and sweeps every local variable of every prefix.
func TestEvolveReplayEquivalenceRandomCorpus(t *testing.T) {
	for seed := int64(900); seed < 900+seedSpan(12); seed++ {
		prog := fixture.RandProgramMutable(seed, fixture.RandConfig{
			Methods: 6, Calls: 6, Globals: 2, GlobalAssigns: 3,
		})
		ev, err := benchgen.PartitionEvolve(prog, "rand-evolve", 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		replayEquivalence(t, fmt.Sprintf("rand seed %d", seed), ev, func(prefix *pag.Program) []pag.NodeID {
			return fixture.AllLocals(prefix)
		})
	}
}

// evolveFixture hand-builds a two-method base for the targeted tests:
//
//	Lib: formal p, ret q = p (summarisable local flow)
//	Main: x = new O; call Lib(x) -> y
type evolveFixture struct {
	g       *pag.Graph
	cls     pag.ClassID
	mLib    pag.MethodID
	mMain   pag.MethodID
	p, q    pag.NodeID
	x, y, o pag.NodeID
}

func buildEvolveFixture(t *testing.T) *evolveFixture {
	t.Helper()
	bd := pag.NewBuilder()
	fx := &evolveFixture{}
	fx.cls = bd.Class("C", pag.NoClass)
	fx.mLib = bd.Method("Lib", fx.cls)
	fx.mMain = bd.Method("Main", fx.cls)
	fx.p = bd.Local(fx.mLib, "p", fx.cls)
	fx.q = bd.Local(fx.mLib, "q", fx.cls)
	bd.Copy(fx.q, fx.p)
	fx.x = bd.Local(fx.mMain, "x", fx.cls)
	fx.y = bd.Local(fx.mMain, "y", fx.cls)
	fx.o = bd.NewObject(fx.x, "O", fx.cls)
	bd.Call(fx.mMain, fx.mLib, "Main:cs0", []pag.NodeID{fx.x}, []pag.NodeID{fx.p}, fx.q, fx.y)
	g, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	fx.g = g
	return fx
}

// TestEvolveUntouchedSummariesSurvive pins the no-over-invalidation claim:
// a wave that only adds a new caller of an existing method (whose frontier
// flags are already set) must invalidate nothing — the warmed summaries
// keep serving, and the new caller's query is answered off them.
func TestEvolveUntouchedSummariesSurvive(t *testing.T) {
	fx := buildEvolveFixture(t)
	// The fixture is tiny, so any patch would trip auto-compaction (which
	// legitimately clears the cache); pin the overlay open — this test is
	// about overlay-time invalidation.
	d := core.NewDynSum(fx.g, core.Config{CompactFraction: -1}, nil)
	pts, err := d.PointsTo(fx.y)
	if err != nil || !pts.HasObject(fx.o) {
		t.Fatalf("warm-up query: %v %v", pts, err)
	}
	warm := d.SummaryCount()
	if warm == 0 {
		t.Fatal("warm-up cached no summaries")
	}

	log, err := d.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	mC := log.AddMethod("C2", fx.cls)
	a := log.AddNode(pag.Local, mC, fx.cls, "a")
	oc := log.AddNode(pag.Object, mC, fx.cls, "OC")
	lhs := log.AddNode(pag.Local, mC, fx.cls, "lhs")
	cs := log.AddCallSite(pag.CallSite{Caller: mC, Name: "C2:cs0", Targets: []pag.MethodID{fx.mLib}})
	log.AddEdge(pag.Edge{Src: oc, Dst: a, Kind: pag.New, Label: pag.NoLabel})
	log.AddEdge(pag.Edge{Src: a, Dst: fx.p, Kind: pag.Entry, Label: int32(cs)})
	log.AddEdge(pag.Edge{Src: fx.q, Dst: lhs, Kind: pag.Exit, Label: int32(cs)})
	res, err := d.ApplyDelta(log)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalidatedSummaries != 0 {
		t.Errorf("wave invalidated %d summaries of untouched methods", res.InvalidatedSummaries)
	}
	if len(res.TouchedMethods) != 0 {
		t.Errorf("TouchedMethods = %v, want none (p and q already carry global flags)", res.TouchedMethods)
	}
	if got := d.SummaryCount(); got != warm {
		t.Errorf("summary count %d -> %d across a no-invalidation wave", warm, got)
	}

	// The new caller resolves through the surviving summaries: cache hits
	// rise, nothing is recomputed for Lib, and the answer flows.
	before := d.Metrics().Snapshot()
	pts2, err := d.PointsTo(lhs)
	if err != nil {
		t.Fatal(err)
	}
	if !pts2.HasObject(oc) || pts2.HasObject(fx.o) {
		t.Errorf("pts(lhs) = %v, want exactly {OC}", pts2)
	}
	after := d.Metrics().Snapshot()
	if after.CacheHits <= before.CacheHits {
		t.Errorf("new caller's query hit the cache %d times, want > %d", after.CacheHits, before.CacheHits)
	}

	// Old queries keep answering identically after the wave: context
	// sensitivity keeps the new caller's object out of Main's result (the
	// RRP matching rejects the mismatched call site).
	pts3, err := d.PointsTo(fx.y)
	if err != nil || !pts3.HasObject(fx.o) {
		t.Fatalf("pts(y) after wave: %v %v", pts3, err)
	}
	if pts3.HasObject(oc) {
		t.Errorf("pts(y) = %v leaked OC across call sites", pts3)
	}
}

// TestEvolveRedefineMethod pins recompilation: redefining a method drops
// its summaries and its owned edges, and the evolved engine answers like a
// from-scratch engine on the equivalent rebuilt graph.
func TestEvolveRedefineMethod(t *testing.T) {
	fx := buildEvolveFixture(t)
	d := core.NewDynSum(fx.g, core.Config{CompactFraction: -1}, nil)
	if _, err := d.PointsTo(fx.y); err != nil {
		t.Fatal(err)
	}
	if d.SummaryCount() == 0 {
		t.Fatal("warm-up cached nothing")
	}

	// Recompile Lib: q = p becomes q = new O2 (the formal is ignored).
	log, err := d.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	log.RedefineMethod(fx.mLib)
	o2 := log.AddNode(pag.Object, fx.mLib, fx.cls, "O2")
	log.AddEdge(pag.Edge{Src: o2, Dst: fx.q, Kind: pag.New, Label: pag.NoLabel})
	res, err := d.ApplyDelta(log)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalidatedSummaries == 0 {
		t.Errorf("redefinition invalidated no summaries")
	}

	pts, err := d.PointsTo(fx.y)
	if err != nil {
		t.Fatal(err)
	}
	if !pts.HasObject(o2) || pts.HasObject(fx.o) {
		t.Errorf("pts(y) after recompilation = %v, want exactly {O2}", pts)
	}
	// x still points at O — Main was not recompiled. (Its entry edge into
	// p was dropped with Lib? No: the entry edge belongs to Main's call
	// site, so it survives; it just flows into a formal nobody reads.)
	ptsX, err := d.PointsTo(fx.x)
	if err != nil || !ptsX.HasObject(fx.o) || ptsX.Len() != 1 {
		t.Errorf("pts(x) = %v %v, want exactly {O}", ptsX, err)
	}
	ptsP, err := d.PointsTo(fx.p)
	if err != nil || !ptsP.HasObject(fx.o) {
		t.Errorf("pts(p) = %v %v: caller-owned entry edge must survive the callee's recompilation", ptsP, err)
	}
}

// TestEvolveLocalEdgeIntoExistingMethod covers the condensation-repair
// path the load-order replays cannot reach (a method's local edges all
// arrive with the method): an epoch that adds assign chords INSIDE
// existing methods of a cyclic benchmark — dissolving their collapsed
// SCCs into singletons and rebuilding the global-edge-adjacent
// representatives — must still answer exactly like a from-scratch engine
// on the rebuilt graph carrying the same chords.
func TestEvolveLocalEdgeIntoExistingMethod(t *testing.T) {
	for _, name := range []string{"soot-c-cyclic", "soot-c-diamond"} {
		p := benchgen.ProfileByNameMust(name).Scaled(0.004)
		ev, err := benchgen.GenerateEvolve(p, 11, 2)
		if err != nil {
			t.Fatal(err)
		}

		// The full program (frozen, condensed) tells us where the collapsed
		// SCCs live, so the chords provably hit them.
		full, err := ev.BuildPrefix(1)
		if err != nil {
			t.Fatal(err)
		}
		g := full.G
		byMethod := map[pag.MethodID][]pag.NodeID{}
		if cond := g.Condensation(); cond != nil && !cond.Trivial() {
			// Cyclic profile: chord between two members of a collapsed SCC.
			for n := 0; n < g.NumNodes(); n++ {
				if cond.Rep(pag.NodeID(n)) != pag.NodeID(n) {
					byMethod[g.Node(pag.NodeID(n)).Method] = append(byMethod[g.Node(pag.NodeID(n)).Method], pag.NodeID(n))
				}
			}
		} else {
			// Diamond profile (no SCCs): chord between locals of the
			// biggest methods.
			for n := 0; n < g.NumNodes(); n++ {
				nd := g.Node(pag.NodeID(n))
				if nd.Kind == pag.Local && nd.Method != pag.NoMethod {
					byMethod[nd.Method] = append(byMethod[nd.Method], pag.NodeID(n))
				}
			}
		}
		var chords []pag.Edge
		for m := 0; m < g.NumMethods() && len(chords) < 6; m++ {
			locals := byMethod[pag.MethodID(m)]
			if len(locals) < 2 {
				continue
			}
			e := pag.Edge{Src: locals[len(locals)-1], Dst: locals[0], Kind: pag.Assign, Label: pag.NoLabel}
			if !g.HasEdge(e) {
				chords = append(chords, e)
			}
		}
		if len(chords) == 0 {
			t.Fatalf("%s: no chord candidates", name)
		}

		// The engine starts on the full frozen graph — whose freeze-time
		// condensation collapsed those SCCs — gets warmed on the deref
		// batch, then takes the chord epoch. (A replayed overlay would not
		// do: its SCCs live in added nodes, which are never collapsed, so
		// only a frozen-condensed base exercises dissolution and repair.)
		ctxs := new(intstack.Table)
		cfg := bigBudget
		cfg.CompactFraction = -1
		d := core.NewDynSum(g, cfg, ctxs)
		for _, v := range derefVars(full) {
			d.PointsTo(v)
		}
		if d.SummaryCount() == 0 {
			t.Fatalf("%s: warm-up cached nothing", name)
		}
		log, err := d.NewDeltaLog()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range chords {
			log.AddEdge(e)
		}
		res, err := d.ApplyDelta(log)
		if err != nil {
			t.Fatal(err)
		}
		if res.InvalidatedSummaries == 0 {
			t.Errorf("%s: chord epoch invalidated nothing on a warmed engine", name)
		}
		if name == "soot-c-cyclic" && res.DissolvedSCCs == 0 {
			t.Errorf("%s: chords into collapsed methods dissolved no SCC", name)
		}

		// Oracle: the full program rebuilt from scratch with the chords in.
		prefix, err := ev.BuildPrefixMutable(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range chords {
			prefix.G.AddEdge(e)
		}
		if err := prefix.G.Validate(); err != nil {
			t.Fatal(err)
		}
		prefix.G.Freeze()
		ref := core.NewDynSum(prefix.G, bigBudget, ctxs)
		queried := 0
		for _, v := range derefVars(prefix) {
			got, errG := d.PointsTo(v)
			want, errW := ref.PointsTo(v)
			compareOn(t, name+" chord epoch", prefix.G, v, got, want, errG, errW, true)
			queried++
		}
		for _, e := range chords {
			got, errG := d.PointsTo(e.Dst)
			want, errW := ref.PointsTo(e.Dst)
			compareOn(t, name+" chord endpoint", prefix.G, e.Dst, got, want, errG, errW, true)
		}
		if queried == 0 {
			t.Fatalf("%s: empty sweep", name)
		}
	}
}

// TestEvolveAutoCompact forces the compaction trigger and checks the
// engine comes out the other side on a fresh frozen graph with identical
// answers and no overlay.
func TestEvolveAutoCompact(t *testing.T) {
	p := benchgen.ProfileByNameMust("soot-c").Scaled(0.004)
	ev, err := benchgen.GenerateEvolve(p, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bigBudget
	cfg.CompactFraction = 1e-9 // any overlay at all triggers compaction
	d := core.NewDynSum(ev.Base.G, cfg, nil)
	for k := 1; k < ev.NumWaves(); k++ {
		log, err := d.NewDeltaLog()
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.WaveLog(log, k); err != nil {
			t.Fatal(err)
		}
		res, err := d.ApplyDelta(log)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Compacted {
			t.Fatalf("wave %d did not compact at fraction %g", k, res.OverlayFraction)
		}
		if d.Overlay().Epoch() != 0 {
			t.Fatal("overlay survived compaction")
		}
		// The compacted graph is a fresh frozen CSR: it must satisfy every
		// structural invariant from scratch, condensation included.
		g := d.Graph()
		if err := check.Graph(g); err != nil {
			t.Fatalf("wave %d: compacted graph: %v", k, err)
		}
		if err := check.Condensation(g, g.Condensation().View()); err != nil {
			t.Fatalf("wave %d: compacted condensation: %v", k, err)
		}
		if err := check.Cache(d); err != nil {
			t.Fatalf("wave %d: post-compact cache: %v", k, err)
		}
	}
	if got := d.Compactions(); got != ev.NumWaves()-1 {
		t.Errorf("Compactions = %d, want %d", got, ev.NumWaves()-1)
	}
	if !d.Graph().Frozen() || d.Graph() == ev.Base.G {
		t.Error("compaction did not swap in a fresh frozen graph")
	}

	prefix, err := ev.BuildPrefix(ev.NumWaves() - 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewDynSum(prefix.G, bigBudget, nil)
	for _, v := range derefVars(prefix) {
		got, errG := d.PointsTo(v)
		want, errW := ref.PointsTo(v)
		compareOn(t, "post-compact", prefix.G, v, got, want, errG, errW, true)
	}
}

// TestEvolveBatchConcurrency replays a load order and runs the full
// cumulative batch concurrently on the evolved engine after every wave —
// under -race this pins that overlay reads are data-race-free against the
// shared summary cache, and results equal the serial answers.
func TestEvolveBatchConcurrency(t *testing.T) {
	p := benchgen.ProfileByNameMust("bloat-cyclic").Scaled(0.004)
	ev, err := benchgen.GenerateEvolve(p, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bigBudget
	cfg.CompactFraction = -1
	ctxs := new(intstack.Table)
	d := core.NewDynSum(ev.Base.G, cfg, ctxs)
	serial := core.NewDynSum(ev.Base.G, cfg, ctxs)
	for k := 0; k < ev.NumWaves(); k++ {
		if k > 0 {
			for _, e := range []*core.DynSum{d, serial} {
				log, err := e.NewDeltaLog()
				if err != nil {
					t.Fatal(err)
				}
				if err := ev.WaveLog(log, k); err != nil {
					t.Fatal(err)
				}
				if _, err := e.ApplyDelta(log); err != nil {
					t.Fatal(err)
				}
			}
		}
		var queries []core.Query
		for _, ds := range ev.DerefsThrough(k) {
			queries = append(queries, core.Query{Var: ds.Var, Ctx: intstack.Empty})
		}
		if len(queries) == 0 {
			continue
		}
		results := d.BatchPointsTo(nil, queries, 4)
		for i, r := range results {
			want, errW := serial.PointsTo(queries[i].Var)
			compareOn(t, fmt.Sprintf("wave %d batch[%d]", k, i), evolveNamer{d}, r.Var, r.Pts, want, r.Err, errW, true)
		}
	}
}
