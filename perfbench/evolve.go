package main

import (
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
)

// evolveWaves is the load-order wave count of xalan-evolve (8 applies
// per replay).
const evolveWaves = 9

// offlineDeltaLayers measures the delta layer for the offline workload,
// after its timed window: an engine answers the base deref sites of
// xalan-evolve, then absorbs each later wave with ApplyDelta (a span
// each, when tr is set) and answers the sites installed so far, so each
// wave invalidates warm summaries.
func offlineDeltaLayers(seed int64, o *outcome, tr *tracer) error {
	ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust("xalan"), seed, evolveWaves)
	if err != nil {
		return err
	}
	d := core.NewDynSum(ev.Base.G, core.Config{}, nil)
	answer := func(k int) {
		for _, s := range ev.DerefsThrough(k) {
			d.PointsTo(s.Var)
		}
	}
	answer(0)
	var (
		applyMS                  []float64
		invalidated, compactions int
		overlay                  float64
	)
	for k := 1; k < ev.NumWaves(); k++ {
		log, err := d.NewDeltaLog()
		if err != nil {
			return err
		}
		if err := ev.WaveLog(log, k); err != nil {
			return err
		}
		start := time.Now()
		res, err := d.ApplyDelta(log)
		if err != nil {
			return err
		}
		end := time.Now()
		tr.add(spanApplyDelta, -1, start, end)
		applyMS = append(applyMS, ms(end.Sub(start)))
		invalidated += res.InvalidatedSummaries
		overlay = max(overlay, res.OverlayFraction)
		if res.Compacted {
			compactions++
		}
		answer(k)
	}
	o.layers["delta.apply_ms"] = median(applyMS)
	o.layers["delta.invalidated_summaries"] = float64(invalidated)
	o.layers["delta.overlay_fraction"] = overlay
	o.layers["delta.compactions"] = float64(compactions)
	o.reportf("xalan-evolve in process: %d applies, ApplyDelta p50 %.4f ms, %d summaries invalidated, overlay fraction max %.4f, %d compactions",
		len(applyMS), median(applyMS), invalidated, overlay, compactions)
	return nil
}
