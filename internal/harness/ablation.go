package harness

import (
	"fmt"
	"io"

	"dynsum/internal/benchgen"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/refine"
	"dynsum/internal/stasum"
)

// This file implements the ablations DESIGN.md commits to beyond the
// paper: isolating the summary cache, sweeping benchmark locality, and
// sweeping STASUM's k-limit.

// CacheAblationResult quantifies the value of DYNSUM's summary cache on
// one benchmark/client: the edge work with and without reuse.
type CacheAblationResult struct {
	Bench, Client     string
	EdgesWith         int64
	EdgesWithout      int64
	PPTAVisitsWith    int64
	PPTAVisitsWithout int64
}

// Factor returns how much work the cache saves (without / with).
func (r CacheAblationResult) Factor() float64 {
	if r.EdgesWith == 0 {
		return 0
	}
	return float64(r.EdgesWithout) / float64(r.EdgesWith)
}

// RunCacheAblation measures DYNSUM with the cache enabled and disabled.
func RunCacheAblation(opts Options, bench, client string) CacheAblationResult {
	opts = opts.WithDefaults()
	p, ok := profileScaled(opts, bench)
	if !ok {
		panic("harness: unknown benchmark " + bench)
	}
	prog := opts.generate(p)
	res := CacheAblationResult{Bench: bench, Client: client}

	on := core.NewDynSum(prog.G, opts.config(), nil)
	timedClient(client, prog, on)
	res.EdgesWith = on.Metrics().EdgesTraversed
	res.PPTAVisitsWith = on.Metrics().PPTAVisits

	offCfg := opts.config()
	offCfg.DisableCache = true
	off := core.NewDynSum(prog.G, offCfg, nil)
	timedClient(client, prog, off)
	res.EdgesWithout = off.Metrics().EdgesTraversed
	res.PPTAVisitsWithout = off.Metrics().PPTAVisits
	return res
}

// LocalityPoint is one point of the locality sweep: the REFINEPTS/DYNSUM
// work ratio on a benchmark regenerated at the given locality percentage.
type LocalityPoint struct {
	LocalityPct float64
	ActualPct   float64 // measured locality of the generated PAG
	WorkRatio   float64 // edgesREFINEPTS / edgesDYNSUM
}

// RunLocalitySweep regenerates bench at each locality target and measures
// the engines on client. The paper presents locality as the scope of
// DYNSUM's optimisation; the ratio should grow with it.
func RunLocalitySweep(opts Options, bench, client string, percents []float64) []LocalityPoint {
	opts = opts.WithDefaults()
	base, ok := benchgen.ProfileByName(bench)
	if !ok {
		panic("harness: unknown benchmark " + bench)
	}
	var out []LocalityPoint
	for _, pct := range percents {
		prof := base.WithLocality(pct).Scaled(opts.Scale)
		prog := benchgen.Generate(prof, opts.Seed)

		dyn := core.NewDynSum(prog.G, opts.config(), nil)
		ref := refine.NewRefinePts(prog.G, opts.config(), nil)
		timedClient(client, prog, dyn)
		timedClient(client, prog, ref)

		pt := LocalityPoint{LocalityPct: pct, ActualPct: prog.G.Stats().Locality()}
		if d := dyn.Metrics().EdgesTraversed; d > 0 {
			pt.WorkRatio = float64(ref.Metrics().EdgesTraversed) / float64(d)
		}
		out = append(out, pt)
	}
	return out
}

// GammaPoint is one point of the STASUM k-limit sweep.
type GammaPoint struct {
	Gamma         int
	Summaries     int
	OfflineVisits int64
	FailedQueries int64 // conservative failures over the client run
}

// RunGammaSweep measures STASUM's offline cost and query completeness as
// the k-limit varies — the Yan et al. threshold whose "optimal value is
// unclear" (paper §5.3).
func RunGammaSweep(opts Options, bench, client string, gammas []int) []GammaPoint {
	opts = opts.WithDefaults()
	p, ok := profileScaled(opts, bench)
	if !ok {
		panic("harness: unknown benchmark " + bench)
	}
	prog := opts.generate(p)
	var out []GammaPoint
	for _, k := range gammas {
		e := stasum.New(prog.G, opts.config(), nil, stasum.WithMaxGamma(k))
		timedClient(client, prog, e)
		out = append(out, GammaPoint{
			Gamma:         k,
			Summaries:     e.SummaryCount(),
			OfflineVisits: e.OfflineVisits,
			FailedQueries: e.Metrics().Failed,
		})
	}
	return out
}

// WriteAblations renders all three ablations.
func WriteAblations(w io.Writer, opts Options) {
	opts = opts.WithDefaults()
	bench := "soot-c"
	if len(opts.Benchmarks) > 0 {
		bench = opts.Benchmarks[0]
	}

	fmt.Fprintf(w, "Ablation 1: DYNSUM summary cache (%s)\n", bench)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "client\tedges(cache on)\tedges(cache off)\tsavings")
	for _, client := range clients.Names() {
		r := RunCacheAblation(opts, bench, client)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2fx\n", client, r.EdgesWith, r.EdgesWithout, r.Factor())
	}
	tw.Flush()

	fmt.Fprintf(w, "\nAblation 2: locality sweep (%s, SafeCast)\n", bench)
	tw = newTabWriter(w)
	fmt.Fprintln(tw, "target locality\tactual\tREFINEPTS/DYNSUM edges")
	for _, pt := range RunLocalitySweep(opts, bench, "SafeCast", []float64{60, 75, 90}) {
		fmt.Fprintf(tw, "%.0f%%\t%.1f%%\t%.2fx\n", pt.LocalityPct, pt.ActualPct, pt.WorkRatio)
	}
	tw.Flush()

	fmt.Fprintf(w, "\nAblation 3: STASUM k-limit sweep (%s, SafeCast)\n", bench)
	tw = newTabWriter(w)
	fmt.Fprintln(tw, "gamma\tsummaries\toffline visits\tfailed queries")
	for _, pt := range RunGammaSweep(opts, bench, "SafeCast", []int{1, 2, 4, 8, 16}) {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\n", pt.Gamma, pt.Summaries, pt.OfflineVisits, pt.FailedQueries)
	}
	tw.Flush()
}
