package core_test

import (
	"fmt"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/pag"
)

// BenchmarkInvalidateMethod is the O(method)-invalidation claim: on a warm
// soot-c cache, per-method invalidation consults the per-method key index and
// walks only the edited method's entries, so its cost is flat as the cache
// grows; the legacy full-scan path (deleteIf over every shard's map) grows
// linearly with total cache size. Each iteration invalidates one warm
// method and restores its entries, so the cache size is stable across
// iterations; run the two scales to see the scan cost double while the
// indexed cost stays put.
func BenchmarkInvalidateMethod(b *testing.B) {
	for _, scale := range []float64{0.01, 0.02} {
		d, methods := warmSootCCache(b, scale)
		b.Run(fmt.Sprintf("indexed/scale%g", scale), func(b *testing.B) {
			runInvalidate(b, d, methods, func(m pag.MethodID) int { return core.InvalidateMethod(d, m) })
		})
		b.Run(fmt.Sprintf("scan/scale%g", scale), func(b *testing.B) {
			runInvalidate(b, d, methods, func(m pag.MethodID) int {
				return core.DeleteIfMethod(d, m)
			})
		})
	}
}

func runInvalidate(b *testing.B, d *core.DynSum, methods []pag.MethodID, invalidate func(pag.MethodID) int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := methods[i%len(methods)]
		b.StopTimer()
		saved := core.SnapshotMethod(d, m)
		b.StartTimer()
		if dropped := invalidate(m); dropped != len(saved) {
			b.Fatalf("invalidate(%d) dropped %d entries, snapshot holds %d", m, dropped, len(saved))
		}
		b.StopTimer()
		core.RestoreMethod(d, m, saved)
		b.StartTimer()
	}
}

// warmSootCCache generates soot-c at the scale, answers its NullDeref
// batch on one engine, and returns the engine plus the methods that ended
// up with cached summaries.
func warmSootCCache(b *testing.B, scale float64) (*core.DynSum, []pag.MethodID) {
	b.Helper()
	prog := benchgen.Generate(benchgen.ProfileByNameMust("soot-c").Scaled(scale), 1)
	d := core.NewDynSum(prog.G, core.Config{}, nil)
	seen := map[pag.MethodID]bool{}
	var methods []pag.MethodID
	for _, dr := range prog.Derefs {
		if _, err := d.PointsTo(dr.Var); err != nil {
			b.Fatal(err)
		}
		m := prog.G.Node(dr.Var).Method
		if !seen[m] {
			seen[m] = true
			methods = append(methods, m)
		}
	}
	if d.SummaryCount() == 0 || len(methods) == 0 {
		b.Fatal("warming produced no cached summaries")
	}
	return d, methods
}
