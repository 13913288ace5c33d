// Benchmarks regenerating each paper table/figure (run with
// go test -bench=. -benchmem) plus the ablations DESIGN.md calls out.
//
// Every benchmark reports machine-independent work counters alongside
// ns/op: edges/op (PAG edge traversals) and, where relevant, summaries.
package dynsum_test

import (
	"fmt"
	"io"
	"testing"

	dynsum "dynsum"
	"dynsum/internal/benchgen"
	"dynsum/internal/cfl"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/harness"
	"dynsum/internal/intstack"
	"dynsum/internal/refine"
	"dynsum/internal/stasum"
)

// benchScale keeps the suite fast; cmd/experiments raises it for the
// paper-shaped runs recorded in EXPERIMENTS.md.
const benchScale = 0.01

var benchOpts = harness.Options{Scale: benchScale, Seed: 1}

// BenchmarkTable1Trace: the Figure 2 motivating example, both queries,
// tracing enabled (paper Table 1).
func BenchmarkTable1Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.RunTable1()
		if res.S2Reused == 0 {
			b.Fatal("no reuse")
		}
	}
}

// BenchmarkTable3Generate: synthetic benchmark generation (paper Table 3),
// one sub-benchmark per program.
func BenchmarkTable3Generate(b *testing.B) {
	for _, p := range benchgen.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			sp := p.Scaled(benchScale)
			for i := 0; i < b.N; i++ {
				prog := benchgen.Generate(sp, 1)
				if prog.G.NumNodes() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkTable4: engine × client on the three Figure 4 benchmarks
// (paper Table 4). Edges/op makes the speedups machine-independent.
func BenchmarkTable4(b *testing.B) {
	for _, bench := range harness.Figure4Benchmarks {
		p := benchgen.ProfileByNameMust(bench).Scaled(benchScale)
		prog := benchgen.Generate(p, 1)
		for _, client := range clients.Names() {
			for _, eng := range harness.EngineNames {
				b.Run(fmt.Sprintf("%s/%s/%s", bench, client, eng), func(b *testing.B) {
					var edges int64
					for i := 0; i < b.N; i++ {
						a := newEngineByName(eng, prog)
						if _, err := clients.Run(client, prog, a); err != nil {
							b.Fatal(err)
						}
						edges = a.Metrics().EdgesTraversed
					}
					b.ReportMetric(float64(edges), "edges/op")
				})
			}
		}
	}
}

func newEngineByName(name string, prog *dynsum.Program) core.Analysis {
	switch name {
	case "NOREFINE":
		return refine.NewNoRefine(prog.G, core.Config{}, nil)
	case "REFINEPTS":
		return refine.NewRefinePts(prog.G, core.Config{}, nil)
	default:
		return core.NewDynSum(prog.G, core.Config{}, nil)
	}
}

// BenchmarkFigure4Batches: the batched DYNSUM-vs-REFINEPTS runs behind
// paper Figure 4 (soot-c, NullDeref — the paper's strongest case).
func BenchmarkFigure4Batches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := harness.RunFigure4(benchOpts, "soot-c", "NullDeref")
		if len(s.WorkRatio) == 0 {
			b.Fatal("no batches")
		}
	}
}

// BenchmarkFigure5Summaries: cumulative summary counting vs STASUM's
// offline pass (paper Figure 5).
func BenchmarkFigure5Summaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := harness.RunFigure5(benchOpts, "bloat", "SafeCast")
		if s.StaSumTotal == 0 {
			b.Fatal("no static summaries")
		}
	}
}

// BenchmarkAblationCache isolates the value of the summary cache: DYNSUM
// with and without it on the same client run (DESIGN.md ablation).
func BenchmarkAblationCache(b *testing.B) {
	p := benchgen.ProfileByNameMust("soot-c").Scaled(benchScale)
	prog := benchgen.Generate(p, 1)
	for _, disabled := range []bool{false, true} {
		name := "cache-on"
		if disabled {
			name = "cache-off"
		}
		b.Run(name, func(b *testing.B) {
			var edges int64
			for i := 0; i < b.N; i++ {
				dCfg := core.Config{}
				dCfg.DisableCache = disabled
				d := core.NewDynSum(prog.G, dCfg, nil)
				clients.NullDeref(prog, d)
				edges = d.Metrics().EdgesTraversed
			}
			b.ReportMetric(float64(edges), "edges/op")
		})
	}
}

// BenchmarkAblationLocality sweeps the benchmark's locality (the paper's
// "scope of our optimisation" metric): DYNSUM's edge work per client run
// at 60/75/90% locality.
func BenchmarkAblationLocality(b *testing.B) {
	base := benchgen.ProfileByNameMust("soot-c")
	for _, pct := range []float64{60, 75, 90} {
		b.Run(fmt.Sprintf("locality%.0f", pct), func(b *testing.B) {
			prog := benchgen.Generate(base.WithLocality(pct).Scaled(benchScale), 1)
			var ratio float64
			for i := 0; i < b.N; i++ {
				d := core.NewDynSum(prog.G, core.Config{}, nil)
				r := refine.NewRefinePts(prog.G, core.Config{}, nil)
				clients.SafeCast(prog, d)
				clients.SafeCast(prog, r)
				if d.Metrics().EdgesTraversed > 0 {
					ratio = float64(r.Metrics().EdgesTraversed) / float64(d.Metrics().EdgesTraversed)
				}
			}
			b.ReportMetric(ratio, "refine/dynsum-edges")
		})
	}
}

// BenchmarkAblationStasumGamma sweeps STASUM's k-limit (the Yan et al.
// threshold): offline cost and summary count per bound.
func BenchmarkAblationStasumGamma(b *testing.B) {
	p := benchgen.ProfileByNameMust("jython").Scaled(benchScale)
	prog := benchgen.Generate(p, 1)
	for _, k := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("gamma%d", k), func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				e := stasum.New(prog.G, core.Config{}, nil, stasum.WithMaxGamma(k))
				total = e.SummaryCount()
			}
			b.ReportMetric(float64(total), "summaries")
		})
	}
}

// BenchmarkBatchPointsTo: the concurrent batch-query engine against the
// serial query loop on a Table 3 synthetic workload (soot-c, NullDeref
// sites — the paper's strongest batching case). Engines start cold each
// iteration so every run pays the same summary bill; the sub-benchmark
// ratio is the wall-clock speedup of the worker pool.
func BenchmarkBatchPointsTo(b *testing.B) {
	// A larger scale than the table benches: per-query cost must dominate
	// pool overhead for the parallelism measurement to be meaningful.
	p := benchgen.ProfileByNameMust("soot-c").Scaled(0.05)
	prog := benchgen.Generate(p, 1)
	queries, err := clients.Queries("NullDeref", prog)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := core.NewDynSum(prog.G, core.Config{}, nil)
			for _, q := range queries {
				d.Query(nil, core.NewPointsToSet(), q.Var, q.Ctx) //nolint:errcheck
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := core.NewDynSum(prog.G, core.Config{}, nil)
				d.BatchPointsTo(nil, queries, workers)
			}
		})
	}
}

// BenchmarkPPTAQuery: single warm-cache DYNSUM query on Figure 2 (the
// engine's hot path).
func BenchmarkPPTAQuery(b *testing.B) {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	if _, err := d.PointsTo(f.S1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.PointsTo(f.S2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPTAQueryInto: the same warm-cache query through the
// allocation-free path (frozen CSR graph, pooled scratch, caller-owned
// result set) — allocs/op must report 0, pinned by the core
// allocation-regression test.
func BenchmarkPPTAQueryInto(b *testing.B) {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	dst := core.NewPointsToSet()
	if err := d.Query(nil, dst, f.S1, intstack.Empty); err != nil {
		b.Fatal(err)
	}
	if err := d.Query(nil, dst, f.S2, intstack.Empty); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Query(nil, dst, f.S2, intstack.Empty); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCFLOracle: the generic cubic solver on the Figure 2 LFT
// encoding — the baseline DYNSUM's specialisation beats (paper §3.1).
func BenchmarkCFLOracle(b *testing.B) {
	f := fixture.BuildFigure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := cfl.PointsToOracle(f.Prog.G); len(got) == 0 {
			b.Fatal("empty oracle")
		}
	}
}

// BenchmarkMiniJavaCompile: frontend throughput on the Figure 2 source.
func BenchmarkMiniJavaCompile(b *testing.B) {
	src := figure2Source()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dynsum.CompileMiniJava("fig2", src); err != nil {
			b.Fatal(err)
		}
	}
}

func figure2Source() string {
	return `
class Vector {
  Object[] elems; int count;
  Vector() { Object[] t; t = new Object[8]; this.elems = t; }
  void add(Object p) { Object[] t; t = this.elems; t[this.count] = p; }
  Object get(int i) { Object[] t; t = this.elems; return t[i]; }
}
class Client {
  Vector vec;
  Client() {}
  Client(Vector v) { this.vec = v; }
  void set(Vector v) { this.vec = v; }
  Object retrieve() { Vector t; t = this.vec; return t.get(0); }
}
class Integer {}
class Main {
  static void main() {
    Vector v1; Vector v2; Client c1; Client c2; Object s1; Object s2;
    v1 = new Vector(); v1.add(new Integer()); c1 = new Client(v1);
    v2 = new Vector(); v2.add(new String()); c2 = new Client(); c2.set(v2);
    s1 = c1.retrieve(); s2 = c2.retrieve();
  }
}
`
}

// TestFacade exercises the public facade end to end.
func TestFacade(t *testing.T) {
	prog, info, err := dynsum.CompileMiniJava("fig2", figure2Source())
	if err != nil {
		t.Fatal(err)
	}
	engine := dynsum.NewDynSum(prog.G, dynsum.Config{})
	pts, err := engine.PointsTo(info.Var("Main.main.s1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts.Objects()) != 1 {
		t.Errorf("pts(s1) = %s", pts.FormatObjects(prog.G))
	}
	for _, c := range dynsum.Clients() {
		if _, err := dynsum.RunClient(c, prog, engine); err != nil {
			t.Fatal(err)
		}
	}
	bprog, err := dynsum.GenerateBenchmark("xalan", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sink countWriter
	if err := dynsum.SavePAG(&sink, bprog); err != nil {
		t.Fatal(err)
	}
	if sink == 0 {
		t.Error("SavePAG wrote nothing")
	}
	if _, err := dynsum.GenerateBenchmark("nope", 1, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if len(dynsum.BenchmarkNames()) != 9 {
		t.Errorf("BenchmarkNames = %v", dynsum.BenchmarkNames())
	}
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

var _ io.Writer = (*countWriter)(nil)
