package harness

import (
	"fmt"
	"io"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/intstack"
)

// This file implements the dynamic-evolution experiment behind
// `experiments -evolve`: the paper's headline scenario — the program keeps
// arriving while the analysis is live — replayed as a load order on the
// Table 3 profiles and measured two ways after every wave:
//
//   - overlay: one live engine absorbs the wave through ApplyDelta (epoch
//     overlay, local condensation repair, targeted invalidation) and then
//     answers the cumulative NullDeref batch, riding every summary the
//     wave did not touch;
//   - rebuild: the prefix graph is constructed from scratch (validate,
//     freeze, condense), a cold engine is built on it, and the same batch
//     runs with an empty cache — what an engine without the delta
//     subsystem has to do on every change.
//
// Wall time depends on the machine, so the table also reports the
// deterministic counters: summaries invalidated per wave (against the
// sketch-bounded dependent-method count) and the overlay fraction that
// drives compaction.

// ApplyWave advances a live engine by one replay wave: position a log at
// the engine's current program, fill it with wave k, apply it. The one
// shared implementation of the replay protocol (pagstat and the bench
// emitter use it too).
func ApplyWave(d *core.DynSum, ev *benchgen.EvolveProgram, k int) (core.DeltaResult, error) {
	log, err := d.NewDeltaLog()
	if err != nil {
		return core.DeltaResult{}, err
	}
	if err := ev.WaveLog(log, k); err != nil {
		return core.DeltaResult{}, err
	}
	return d.ApplyDelta(log)
}

// WriteEvolve renders the per-wave overlay-vs-rebuild table for the
// evolve workloads.
func WriteEvolve(w io.Writer, opts Options) {
	opts = opts.WithDefaults()
	fmt.Fprintln(w, "== Dynamic evolution: delta overlay vs rebuild-from-scratch ==")
	fmt.Fprintf(w, "(scale %g, seed %d, %d waves; cumulative NullDeref batch after every wave)\n\n",
		opts.Scale, opts.Seed, benchgen.DefaultEvolveWaves)

	tw := newTabWriter(w)
	fmt.Fprintln(tw, "benchmark\twave\tqueries\tapply\tinvalidated\tdependent\toverlay%\toverlay-total\trebuild-total\tspeedup")
	for _, name := range benchgen.EvolveBenchmarks {
		p := benchgen.ProfileByNameMust(name).Scaled(opts.Scale)
		ev, err := benchgen.GenerateEvolve(p, opts.Seed, benchgen.DefaultEvolveWaves)
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", name, err)
			continue
		}
		cfg := opts.config()
		d := core.NewDynSum(ev.Base.G, cfg, nil)
		dst := core.NewPointsToSet()
		var totOverlay, totRebuild time.Duration
		for k := 0; k < ev.NumWaves(); k++ {
			var applyDur time.Duration
			var res core.DeltaResult
			if k > 0 {
				start := time.Now()
				var err error
				res, err = ApplyWave(d, ev, k)
				applyDur = time.Since(start)
				if err != nil {
					fmt.Fprintf(w, "%s wave %d: %v\n", ev.Name, k, err)
					break
				}
			}
			queries := ev.DerefsThrough(k)
			start := time.Now()
			for _, q := range queries {
				d.Query(nil, dst, q.Var, intstack.Empty) // budget failures count like any query
			}
			overlayDur := applyDur + time.Since(start)

			start = time.Now()
			prefix, err := ev.BuildPrefix(k)
			if err != nil {
				fmt.Fprintf(w, "%s wave %d: rebuild: %v\n", ev.Name, k, err)
				break
			}
			rd := core.NewDynSum(prefix.G, cfg, nil)
			for _, q := range queries {
				rd.Query(nil, dst, q.Var, intstack.Empty)
			}
			rebuildDur := time.Since(start)
			totOverlay += overlayDur
			totRebuild += rebuildDur

			frac := res.OverlayFraction
			note := ""
			if res.Compacted {
				note = " (compacted)"
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%d\t%.1f\t%s\t%s\t%.1fx%s\n",
				ev.Name, k, len(queries), fmtDuration(applyDur),
				res.InvalidatedSummaries, res.DependentMethods, 100*frac,
				fmtDuration(overlayDur), fmtDuration(rebuildDur),
				ratio(rebuildDur, overlayDur), note)
		}
		fmt.Fprintf(tw, "%s\ttotal\t\t\t\t\t\t%s\t%s\t%.1fx\n",
			ev.Name, fmtDuration(totOverlay), fmtDuration(totRebuild), ratio(totRebuild, totOverlay))
	}
	tw.Flush()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "overlay-total = ApplyDelta + cumulative batch on the live engine;")
	fmt.Fprintln(w, "rebuild-total = build+freeze+condense the prefix + the same batch on a cold engine.")
	fmt.Fprintln(w, "invalidated = summaries dropped via the O(method) index; dependent = the")
	fmt.Fprintln(w, "reverse-dependency sketch's bound on methods a cascading invalidator would drop.")
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
