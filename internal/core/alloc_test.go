// Race instrumentation inserts its own allocations, so the allocation
// regression is asserted only on uninstrumented builds (the CI full job).
//
//go:build !race

package core_test

import (
	"math"
	"runtime"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
)

// warmFigure2 builds the (frozen) Figure 2 example and warms a DYNSUM
// engine on both motivating queries.
func warmFigure2(t *testing.T) (*core.DynSum, *fixture.Figure2) {
	t.Helper()
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	dst := core.NewPointsToSet()
	if err := d.Query(nil, dst, f.S1, intstack.Empty); err != nil {
		t.Fatal(err)
	}
	if err := d.Query(nil, dst, f.S2, intstack.Empty); err != nil {
		t.Fatal(err)
	}
	return d, f
}

// TestWarmQueryAllocatesNothing is the allocation-regression guard for the
// zero-allocation query path: a warm-cache DYNSUM points-to query on the
// Figure 2 motivating example, asked through the reuse API
// (Query with a caller-owned result set), must perform zero heap
// allocations. Per-query state lives in the pooled Scratch, cached PPTA
// summaries are handed to the driver as read-only views, and the result
// set's buckets are retained across Reset — so the steady state of a
// batch touches the allocator not at all.
func TestWarmQueryAllocatesNothing(t *testing.T) {
	d, f := warmFigure2(t)
	dst := core.NewPointsToSet()
	if err := d.Query(nil, dst, f.S2, intstack.Empty); err != nil { // size dst's buckets
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Query(nil, dst, f.S2, intstack.Empty); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm-cache Query allocated %.1f times per run, want 0", allocs)
	}
	if dst.Len() == 0 {
		t.Error("warm query returned an empty set")
	}
}

// TestWarmPointsToAllocatesOnlyTheResult bounds the allocating
// convenience API: a warm-cache PointsTo may allocate the returned set
// (struct, map, buckets) and nothing else.
func TestWarmPointsToAllocatesOnlyTheResult(t *testing.T) {
	d, f := warmFigure2(t)
	const resultAllocBound = 6
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.PointsTo(f.S2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > resultAllocBound {
		t.Errorf("warm-cache PointsTo allocated %.1f times per run, want <= %d (the result set only)",
			allocs, resultAllocBound)
	}
}

// TestColdQueryAllocationBound documents the cold-path bill: with the
// summary cache emptied before every run (buckets retained), a Figure 2
// query recomputes its PPTA summaries and re-caches them. The only
// allocations are the exactly-sized summary slices and their cache (and
// method-index) entries — proportional to the distinct summaries written
// back, independent of traversal length. The memoised engine caches every
// visited state, not just each traversal's start, so the bound is a bit
// above the pre-memoisation 64: the extra entries are precisely what makes
// the next query on any visited state allocation-free.
func TestColdQueryAllocationBound(t *testing.T) {
	d, f := warmFigure2(t)
	dst := core.NewPointsToSet()
	const coldAllocBound = 96
	allocs := testing.AllocsPerRun(100, func() {
		d.ResetCache()
		if err := d.Query(nil, dst, f.S2, intstack.Empty); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > coldAllocBound {
		t.Errorf("cold Query allocated %.1f times per run, want <= %d", allocs, coldAllocBound)
	}
}

// TestNewDynSumIsConstantSize pins engine construction at O(1) in the
// graph's size: every engine carries an epoch overlay and a resolved view,
// and both must alias the frozen arrays rather than copy or index them
// per node. Building engines over a graph ten times larger must not
// allocate more bytes. TotalAlloc also counts whatever the runtime and
// other goroutines allocate meanwhile, which only ever adds: each size
// keeps its smallest of several samples, and a slack of constSizeSlack
// bytes per engine absorbs the rest (a per-node table of one int32
// already costs ten times that at the larger size).
func TestNewDynSumIsConstantSize(t *testing.T) {
	const constSizeSlack = 1024
	bytesPerEngine := func(scale float64) (uint64, int) {
		prog := benchgen.Generate(benchgen.ProfileByNameMust("luindex").Scaled(scale), 1)
		const engines, samples = 50, 5
		best := uint64(math.MaxUint64)
		for range samples {
			keep := make([]*core.DynSum, engines)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range keep {
				keep[i] = core.NewDynSum(prog.G, core.Config{}, nil)
			}
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(keep)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/engines)
		}
		return best, prog.G.NumNodes()
	}
	small, nSmall := bytesPerEngine(0.005)
	large, nLarge := bytesPerEngine(0.05)
	if nLarge < 5*nSmall {
		t.Fatalf("graphs too close in size: %d vs %d nodes", nSmall, nLarge)
	}
	if large > small+constSizeSlack {
		t.Errorf("NewDynSum allocates %d B on %d nodes but %d B on %d nodes; construction must not grow with the graph",
			small, nSmall, large, nLarge)
	}
}
