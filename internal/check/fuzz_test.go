package check_test

import (
	"errors"
	"math/rand"
	"testing"

	"dynsum/internal/check"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

// The fuzz targets below drive the full validator stack over randomly
// generated programs and delta logs. Seed corpora live under
// testdata/fuzz/<Name>/ so plain `go test` already replays them; CI's
// analysis job additionally runs each target with -fuzz for a smoke
// window. All inputs are folded into small ranges — the value of these
// targets is exploring structural shapes, not allocation stress.

// fuzzConfig derives a small RandConfig from two fuzz integers.
func fuzzConfig(shape int64, recursive bool) fixture.RandConfig {
	u := uint64(shape)
	return fixture.RandConfig{
		Methods:          int(u%5) + 1,
		VarsPerMethod:    int(u>>3%6) + 2,
		ObjectsPerMethod: int(u>>6%3) + 1,
		Fields:           int(u>>9%3) + 1,
		Globals:          int(u >> 12 % 4),
		LocalEdges:       int(u>>15%10) + 1,
		Calls:            int(u >> 19 % 8),
		GlobalAssigns:    int(u >> 22 % 8),
		Recursive:        recursive,
	}
}

// FuzzFreezeValidate generates a random program and asserts every graph
// and condensation invariant in builder form, after Freeze, and across
// repeated fingerprints (Freeze must be idempotent and deterministic).
func FuzzFreezeValidate(f *testing.F) {
	f.Add(int64(1), int64(0), false)
	f.Add(int64(7), int64(1<<15|3<<3), true)
	f.Add(int64(42), int64(-1), false)
	f.Fuzz(func(t *testing.T, seed, shape int64, recursive bool) {
		p := fixture.RandProgramMutable(seed, fuzzConfig(shape, recursive))
		if err := p.G.Validate(); err != nil {
			t.Fatalf("generator emitted an invalid program: %v", err)
		}
		if err := check.Graph(p.G); err != nil {
			t.Fatalf("builder form: %v", err)
		}
		p.G.Freeze()
		if err := check.Graph(p.G); err != nil {
			t.Fatalf("frozen form: %v", err)
		}
		if err := check.Condensation(p.G, p.G.Condensation().View()); err != nil {
			t.Fatalf("condensation: %v", err)
		}
		fp := check.Fingerprint(p.G)
		p.G.Freeze() // idempotent by contract
		if again := check.Fingerprint(p.G); again != fp {
			t.Fatalf("re-Freeze changed the layout: %#x -> %#x", fp, again)
		}
	})
}

// FuzzDeltaApplyValidate evolves a random frozen program through random
// delta waves on a live engine — method redefinitions, re-added edges,
// grown methods and nodes — validating the overlay, the base-array
// fingerprint and the cache index after every wave, and the compacted
// graph plus its condensation at the end.
func FuzzDeltaApplyValidate(f *testing.F) {
	f.Add(int64(1), int64(2), int64(0))
	f.Add(int64(9), int64(3), int64(1<<12|5))
	f.Add(int64(23), int64(1), int64(-1))
	f.Fuzz(func(t *testing.T, seed, waves, shape int64) {
		p := fixture.RandProgram(seed, fuzzConfig(shape, shape&1 != 0))
		base := p.G
		fp := check.Fingerprint(base)
		cls := pag.NoClass
		if base.NumClasses() > 0 {
			cls = 0
		}

		// CompactFraction < 0 pins the overlay open so every wave stacks
		// another epoch on it; Compact runs explicitly at the end.
		d := core.NewDynSum(base, core.Config{Budget: 150_000, CompactFraction: -1}, nil)
		rng := rand.New(rand.NewSource(seed ^ shape<<1))

		numWaves := int(uint64(waves) % 4)
		for w := 0; w < numWaves; w++ {
			log, err := d.NewDeltaLog()
			if err != nil {
				t.Fatal(err)
			}

			// Redefine one random base method: drop its statements, then
			// re-add a random subset of local flow between its own nodes.
			m := pag.MethodID(rng.Intn(base.NumMethods()))
			log.RedefineMethod(m)
			var locals, objs []pag.NodeID
			for i := 0; i < base.NumNodes(); i++ {
				nd := base.Node(pag.NodeID(i))
				if nd.Method != m {
					continue
				}
				switch nd.Kind {
				case pag.Local:
					locals = append(locals, pag.NodeID(i))
				case pag.Object:
					objs = append(objs, pag.NodeID(i))
				}
			}
			if len(locals) > 1 {
				for k := 0; k < 1+rng.Intn(4); k++ {
					a := locals[rng.Intn(len(locals))]
					b := locals[rng.Intn(len(locals))]
					if a != b {
						log.AddEdge(pag.Edge{Src: a, Dst: b, Kind: pag.Assign, Label: pag.NoLabel})
					}
				}
			}
			if len(objs) > 0 && len(locals) > 0 {
				log.AddEdge(pag.Edge{
					Src: objs[rng.Intn(len(objs))], Dst: locals[rng.Intn(len(locals))],
					Kind: pag.New, Label: pag.NoLabel,
				})
			}

			// Grow a fresh method with an allocation, feeding a global
			// when the base has one.
			nm := log.AddMethod("fuzz.m", cls)
			v := log.AddNode(pag.Local, nm, cls, "fv")
			o := log.AddNode(pag.Object, nm, cls, "fo")
			log.AddEdge(pag.Edge{Src: o, Dst: v, Kind: pag.New, Label: pag.NoLabel})
			for i := 0; i < base.NumNodes(); i++ {
				if base.Node(pag.NodeID(i)).Kind == pag.Global {
					log.AddEdge(pag.Edge{Src: v, Dst: pag.NodeID(i), Kind: pag.AssignGlobal, Label: pag.NoLabel})
					break
				}
			}

			if _, err := d.ApplyDelta(log); err != nil {
				t.Fatalf("wave %d: ApplyDelta: %v", w, err)
			}

			// Exercise the engine so cache and intern carry state worth
			// auditing; depth/budget refusals are legitimate outcomes on
			// adversarial shapes.
			for _, q := range locals {
				if _, err := d.PointsTo(q); err != nil &&
					!errors.Is(err, core.ErrDepth) && !errors.Is(err, core.ErrBudget) {
					t.Fatalf("wave %d: PointsTo(%d): %v", w, q, err)
				}
			}

			ov := d.Overlay()
			if err := check.Overlay(ov, ov.BaseView(), ov.CondView(), base, fp); err != nil {
				t.Fatalf("wave %d: %v", w, err)
			}
			if err := check.Cache(d); err != nil {
				t.Fatalf("wave %d: %v", w, err)
			}
		}

		if numWaves > 0 {
			if err := d.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			g := d.Graph()
			if err := check.Graph(g); err != nil {
				t.Fatalf("post-compact graph: %v", err)
			}
			if err := check.Condensation(g, g.Condensation().View()); err != nil {
				t.Fatalf("post-compact condensation: %v", err)
			}
			if err := check.Cache(d); err != nil {
				t.Fatalf("post-compact cache: %v", err)
			}
		}
	})
}
