package benchgen

import (
	"strings"
	"testing"

	"dynsum/internal/pag"
)

func TestOpenWorldProfileNames(t *testing.T) {
	if len(OpenWorldProfiles) != 6 {
		t.Fatalf("got %d open-world profiles, want 6", len(OpenWorldProfiles))
	}
	seen := map[string]bool{}
	for _, p := range OpenWorldProfiles {
		n := p.Name()
		if seen[n] {
			t.Fatalf("duplicate profile name %s", n)
		}
		seen[n] = true
		got, ok := OpenWorldProfileByName(n)
		if !ok || got != p {
			t.Fatalf("round trip of %s failed: %+v %v", n, got, ok)
		}
	}
	if !seen["avrora-ow25"] || !seen["luindex-ow50"] {
		t.Fatalf("expected names missing: %v", seen)
	}
}

func TestGenerateOpenWorldDeterministic(t *testing.T) {
	ow, _ := OpenWorldProfileByName("avrora-ow25")
	a, err := GenerateOpenWorld(ow, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateOpenWorld(ow, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Deleted) != len(b.Deleted) {
		t.Fatalf("deletion sets differ in size: %d vs %d", len(a.Deleted), len(b.Deleted))
	}
	for i := range a.Deleted {
		if a.Deleted[i] != b.Deleted[i] {
			t.Fatalf("deletion sets differ at %d: %d vs %d", i, a.Deleted[i], b.Deleted[i])
		}
	}
	if a.Specs.Format() != b.Specs.Format() {
		t.Fatal("derived specs differ across identical generations")
	}
}

func TestGenerateOpenWorldShape(t *testing.T) {
	ow, _ := OpenWorldProfileByName("avrora-ow25")
	bench, err := GenerateOpenWorld(ow, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Stripped.G.Validate(); err != nil {
		t.Fatalf("stripped graph invalid: %v", err)
	}
	if len(bench.Deleted) == 0 {
		t.Fatal("no deletions")
	}
	for _, m := range bench.Deleted {
		name := bench.Oracle.G.MethodInfo(m).Name
		if !strings.HasPrefix(name, "lib.") {
			t.Errorf("deleted non-library method %s", name)
		}
		if _, ok := bench.Stripped.G.Bodyless(m); !ok {
			t.Errorf("deleted method %s not marked bodyless", name)
		}
	}
	// ID stability: query lists alias the oracle's and stay in range.
	for _, c := range bench.Stripped.Casts {
		if int(c.Var) >= bench.Stripped.G.NumNodes() {
			t.Fatalf("cast var %d out of range", c.Var)
		}
	}
	// The spec file covers exactly the deleted methods.
	if len(bench.Specs.Methods) != len(bench.Deleted) {
		t.Fatalf("specs cover %d methods, deleted %d", len(bench.Specs.Methods), len(bench.Deleted))
	}
}

// TestOpenWorldProfilesDeleteDistinctSets guards the sweep against
// aliased workloads: every profile must strip a deletion set no other
// profile strips, or two benchmark rows would measure the same program
// under different names.
func TestOpenWorldProfilesDeleteDistinctSets(t *testing.T) {
	for _, scale := range []float64{0.005, 0.02} {
		seen := map[string]string{}
		for _, ow := range OpenWorldProfiles {
			bench, err := GenerateOpenWorld(ow, scale, 1)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, m := range bench.Deleted {
				names = append(names, bench.Oracle.G.MethodInfo(m).Name)
			}
			key := ow.Base + ":" + strings.Join(names, ",")
			if prev, dup := seen[key]; dup {
				t.Errorf("scale %g: %s deletes the same methods as %s", scale, ow.Name(), prev)
			}
			seen[key] = ow.Name()
		}
	}
}

// TestGeneratedMethodNamesUnique pins name uniqueness at the harness's
// bench scale: method() appends a global sequence number to its prefix, so
// a prefix that is another prefix plus digits aliases names across layers
// ("lib.set1"+seq 3 == "lib.set"+seq 13) — and duplicate names break
// open-world spec resolution, which addresses methods by name.
func TestGeneratedMethodNamesUnique(t *testing.T) {
	for _, base := range []string{"avrora", "luindex"} {
		p, _ := ProfileByName(base)
		g := Generate(p.Scaled(0.02), 1).G
		seen := make(map[string]pag.MethodID, g.NumMethods())
		for m := 0; m < g.NumMethods(); m++ {
			name := g.MethodInfo(pag.MethodID(m)).Name
			if prev, dup := seen[name]; dup {
				t.Fatalf("%s: methods %d and %d share the name %q", base, prev, m, name)
			}
			seen[name] = pag.MethodID(m)
		}
	}
}
