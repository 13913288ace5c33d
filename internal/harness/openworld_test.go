package harness

import (
	"strings"
	"testing"
)

func TestRunOpenWorldTable(t *testing.T) {
	rows, err := RunOpenWorld(Options{Scale: 0.005, Seed: 1, Benchmarks: []string{"avrora-ow25", "luindex-ow25"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Deleted == 0 {
			t.Errorf("%s: no deletions recorded", r.Bench)
		}
		if r.SpecExact+r.SpecBlended != r.Deleted {
			t.Errorf("%s: specs %d exact + %d blended != %d deleted",
				r.Bench, r.SpecExact, r.SpecBlended, r.Deleted)
		}
		oracle := r.Cells["oracle"]
		if oracle.Queries == 0 {
			t.Errorf("%s: oracle answered no queries", r.Bench)
		}
		for _, mode := range []string{"blended", "specs"} {
			c := r.Cells[mode]
			if c.Unsound != 0 {
				t.Errorf("%s/%s: %d unsound answers", r.Bench, mode, c.Unsound)
			}
			if c.Queries == 0 {
				t.Errorf("%s/%s: answered no queries", r.Bench, mode)
			}
			// Blob conflation can only add objects, so when both modes
			// answered the same query set the open-world mean must not dip
			// below the oracle's.
			if c.Skipped == oracle.Skipped && c.Queries == oracle.Queries &&
				c.AvgObjects+1e-9 < oracle.AvgObjects {
				t.Errorf("%s/%s: avg objects %.2f below oracle %.2f",
					r.Bench, mode, c.AvgObjects, oracle.AvgObjects)
			}
		}
	}
}

func TestWriteOpenWorld(t *testing.T) {
	var sb strings.Builder
	err := WriteOpenWorld(&sb, Options{Scale: 0.005, Seed: 1, Benchmarks: []string{"avrora-ow10"}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"avrora-ow10", "oracle", "blended", "specs", "soundness holds"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "UNSOUND") {
		t.Errorf("report flags unsoundness:\n%s", out)
	}
}

func TestBenchJSONOpenWorldRecords(t *testing.T) {
	stubBench(t)
	snap := RunBenchJSON(Options{Scale: 0.005, Seed: 1})
	want := map[string]bool{}
	for _, name := range OpenWorldBenchProfiles {
		for _, mode := range []string{"oracle", "blended", "specs"} {
			want["openworld/"+name+"/"+mode] = false
		}
	}
	for _, r := range snap.Records {
		if _, ok := want[r.Name]; !ok {
			continue
		}
		want[r.Name] = true
		if r.EdgesTraversed == 0 {
			t.Errorf("%s: no traversed-edge counter", r.Name)
		}
		if strings.HasSuffix(r.Name, "/blended") && r.BlendedSummaries == 0 {
			t.Errorf("%s: blended sweep reported no blended summaries", r.Name)
		}
		if strings.HasSuffix(r.Name, "/oracle") && r.BlendedSummaries != 0 {
			t.Errorf("%s: oracle sweep reported blended summaries", r.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("snapshot missing workload %q", name)
		}
	}
}
