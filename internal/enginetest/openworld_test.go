package enginetest

import (
	"fmt"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/intstack"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
)

// The open-world soundness obligation: on every generated open-world
// workload, at every deletion fraction, in all four engine modes, the
// answer computed against the stripped program must be a superset of the
// full-body oracle's answer — where an oracle object allocated inside a
// deleted method is covered by that method's blob object. Stripping is
// ID-stable, so a query var names the same node in both programs and the
// comparison is direct.

// owEngineMode is one cell of the cache × condensation matrix.
type owEngineMode struct {
	name                string
	noCache, noCondense bool
}

func owEngineModes() []owEngineMode {
	return []owEngineMode{
		{"cache+condensed", false, false},
		{"cache+base", false, true},
		{"nocache+condensed", true, false},
		{"nocache+base", true, true},
	}
}

// owProfiles returns the sweep's workloads: the full OpenWorldProfiles
// list by default, a 4-entry cross-section (both bases, both deletion
// strategies, mixed fractions) under -short.
func owProfiles() []benchgen.OWProfile {
	if testing.Short() {
		var out []benchgen.OWProfile
		for _, name := range []string{"avrora-ow25", "avrora-ow50", "luindex-ow10", "luindex-ow25"} {
			p, ok := benchgen.OpenWorldProfileByName(name)
			if !ok {
				panic("unknown short-sweep profile " + name)
			}
			out = append(out, p)
		}
		return out
	}
	return benchgen.OpenWorldProfiles
}

// blobCover maps each deleted method to its blob object in the stripped
// graph.
func blobCover(t *testing.T, sg *pag.Graph, deleted []pag.MethodID) map[pag.MethodID]pag.NodeID {
	t.Helper()
	cover := make(map[pag.MethodID]pag.NodeID, len(deleted))
	for _, m := range deleted {
		info, ok := sg.Bodyless(m)
		if !ok {
			t.Fatalf("deleted method %s not marked bodyless", sg.MethodInfo(m).Name)
		}
		cover[m] = info.BlobObj
	}
	return cover
}

// assertSuperset checks one query: every oracle object must appear in the
// open-world answer, either literally or via the owning deleted method's
// blob. Returns true when the query was skipped conservatively.
func assertSuperset(t *testing.T, tag string, bench *benchgen.OpenWorldBench,
	cover map[pag.MethodID]pag.NodeID, v pag.NodeID, want, got *core.PointsToSet,
	errW, errG error) (skipped bool) {
	t.Helper()
	if errW != nil || errG != nil {
		if (errW == nil || conservative(errW)) && (errG == nil || conservative(errG)) {
			return true
		}
		t.Fatalf("%s: pts(%d): unexpected errors oracle=%v open=%v", tag, v, errW, errG)
	}
	for _, o := range want.Objects() {
		if got.HasObject(o) {
			continue
		}
		blob, deleted := cover[bench.Oracle.G.Node(o).Method]
		if deleted && got.HasObject(blob) {
			continue
		}
		t.Errorf("%s: open-world pts(%s) drops oracle object %s (not covered by a blob): %s",
			tag, bench.Oracle.G.NodeString(v), bench.Oracle.G.NodeString(o),
			got.FormatObjects(bench.Stripped.G))
	}
	return false
}

// TestOpenWorldSoundnessSweep is the acceptance criterion: blended and
// spec-applied answers are supersets of the oracle on every open-world
// workload, at every deletion fraction, in all four engine modes.
func TestOpenWorldSoundnessSweep(t *testing.T) {
	scale := 0.01
	if testing.Short() {
		scale = 0.004
	}
	for _, ow := range owProfiles() {
		bench, err := benchgen.GenerateOpenWorld(ow, scale, 7)
		if err != nil {
			t.Fatalf("%s: %v", ow.Name(), err)
		}
		if err := bench.Stripped.G.Validate(); err != nil {
			t.Fatalf("%s: stripped graph invalid: %v", ow.Name(), err)
		}
		cover := blobCover(t, bench.Stripped.G, bench.Deleted)

		ctxs := new(intstack.Table)
		oracle := core.NewDynSum(bench.Oracle.G, bigBudget, ctxs)
		queries := dedupQueries(queryVars(bench.Oracle))

		total, skipped := 0, 0
		for _, mode := range owEngineModes() {
			for _, withSpecs := range []bool{false, true} {
				dCfg := bigBudget
				dCfg.DisableCache = mode.noCache
				dCfg.DisableCondense = mode.noCondense
				d := core.NewDynSum(bench.Stripped.G, dCfg, new(intstack.Table))
				d.EnableOpenWorld(core.PolicyBlended)
				tag := fmt.Sprintf("%s/%s/blended", ow.Name(), mode.name)
				if withSpecs {
					tag = fmt.Sprintf("%s/%s/specs", ow.Name(), mode.name)
					resolved, err := openworld.Resolve(bench.Stripped.G, bench.Specs)
					if err != nil {
						t.Fatalf("%s: Resolve: %v", tag, err)
					}
					if _, err := d.ApplySpecs(resolved.Edges, resolved.Exact); err != nil {
						t.Fatalf("%s: ApplySpecs: %v", tag, err)
					}
					// Spec'd methods left blended treatment; blended
					// fallbacks (if any) must remain active.
					if got, want := len(d.OpenWorldActive()), len(resolved.Blended); got != want {
						t.Fatalf("%s: %d methods active after specs, want %d",
							tag, got, want)
					}
				}
				for _, v := range queries {
					total++
					want, errW := oracle.PointsTo(v)
					got, errG := d.PointsTo(v)
					if assertSuperset(t, tag, bench, cover, v, want, got, errW, errG) {
						skipped++
					}
				}
			}
		}
		if skipped*3 > total {
			t.Errorf("%s: too many conservative skips: %d of %d", ow.Name(), skipped, total)
		}
	}
}

// dedupQueries drops repeated query vars (cast and deref lists overlap).
func dedupQueries(vs []pag.NodeID) []pag.NodeID {
	seen := make(map[pag.NodeID]bool, len(vs))
	var out []pag.NodeID
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestOpenWorldBodyArrivalSweep is the delta-evolution case at workload
// scale: strip exactly one library method, verify blended superset, then
// deliver the oracle's local edges for that method through a delta epoch.
// The method must leave open-world treatment and — the blob nodes now
// being unreachable — every query must match the oracle exactly.
func TestOpenWorldBodyArrivalSweep(t *testing.T) {
	scale := 0.01
	if testing.Short() {
		scale = 0.004
	}
	prog := benchgen.Generate(benchgen.ProfileByNameMust("avrora").Scaled(scale), 7)

	// Pick the first library method that actually has local edges, so the
	// delta delivery is non-trivial.
	var target = pag.NoMethod
	var body []pag.Edge
	for m := 0; m < prog.G.NumMethods() && target == pag.NoMethod; m++ {
		id := pag.MethodID(m)
		name := prog.G.MethodInfo(id).Name
		if len(name) < 4 || name[:4] != "lib." {
			continue
		}
		var edges []pag.Edge
		for n := 0; n < prog.G.NumNodes(); n++ {
			nid := pag.NodeID(n)
			if prog.G.Node(nid).Method != id {
				continue
			}
			edges = append(edges, prog.G.LocalOut(nid)...)
		}
		if len(edges) > 0 {
			target, body = id, edges
		}
	}
	if target == pag.NoMethod {
		t.Fatal("no library method with local edges in the generated program")
	}

	sg, err := openworld.StripBodies(prog.G, []pag.MethodID{target})
	if err != nil {
		t.Fatal(err)
	}
	sg.Freeze()

	ctxs := new(intstack.Table)
	oracle := core.NewDynSum(prog.G, bigBudget, ctxs)
	queries := dedupQueries(queryVars(prog))

	for _, mode := range owEngineModes() {
		dCfg := bigBudget
		dCfg.DisableCache = mode.noCache
		dCfg.DisableCondense = mode.noCondense
		d := core.NewDynSum(sg, dCfg, new(intstack.Table))
		d.EnableOpenWorld(core.PolicyBlended)

		// Phase 1: blended answers are supersets.
		info, _ := sg.Bodyless(target)
		cover := map[pag.MethodID]pag.NodeID{target: info.BlobObj}
		bench := &benchgen.OpenWorldBench{
			Oracle:   prog,
			Stripped: pag.NewProgram("stripped", sg),
			Deleted:  []pag.MethodID{target},
		}
		for _, v := range queries {
			want, errW := oracle.PointsTo(v)
			got, errG := d.PointsTo(v)
			assertSuperset(t, mode.name+"/pre", bench, cover, v, want, got, errW, errG)
		}

		// Phase 2: the body arrives.
		log, err := d.NewDeltaLog()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range body {
			log.AddEdge(e)
		}
		if _, err := d.ApplyDelta(log); err != nil {
			t.Fatalf("mode %s: ApplyDelta: %v", mode.name, err)
		}
		if got := d.OpenWorldActive(); len(got) != 0 {
			t.Fatalf("mode %s: still active after body arrival: %v", mode.name, got)
		}

		// Phase 3: exact answers resume — object sets equal the oracle's
		// (the blob nodes exist in the stripped graph but are unreachable).
		for _, v := range queries {
			want, errW := oracle.PointsTo(v)
			got, errG := d.PointsTo(v)
			if errW != nil || errG != nil {
				if (errW == nil || conservative(errW)) && (errG == nil || conservative(errG)) {
					continue
				}
				t.Fatalf("mode %s: post pts(%d): oracle=%v open=%v", mode.name, v, errW, errG)
			}
			if !got.SameObjects(want) {
				t.Errorf("mode %s: post-arrival pts(%s) = %s, oracle %s",
					mode.name, prog.G.NodeString(v),
					got.FormatObjects(sg), want.FormatObjects(prog.G))
			}
		}
	}
}
