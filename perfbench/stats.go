package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank, and 0
// for an empty sample. xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	i := int(q * float64(len(xs)))
	return xs[min(i, len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is p99 when the sample holds at least ten values beyond
// it, and otherwise the highest percentile that does; it also returns
// the percentile it reports.
func tailQuantile(xs []float64) (value float64, pct float64) {
	pct = 99
	if n := len(xs); n < 1000 {
		pct = max(50, 100*(1-10/float64(max(n, 1))))
	}
	return quantile(xs, pct/100), pct
}

// layer names a span: the public call it was recorded around.
type layer uint8

const (
	spanColdQuery  layer = iota // core.DynSum.PointsTo on a fresh engine
	spanWarmQuery               // core.DynSum.PointsTo on a warmed engine
	spanApplyDelta              // core.DynSum.ApplyDelta (xalan-evolve waves)
	spanHTTPQuery               // POST /v1/query, client side
	spanServeQueue              // admission to worker pickup (queued_ns)
	spanServeRun                // worker pickup to completion (ran_ns)
	numLayers
)

var layerNames = [numLayers]string{
	"core.cold_query", "core.warm_query", "core.apply_delta",
	"dynsumd.query", "serve.queue", "serve.run",
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's origin; parent is the index of the enclosing span or -1.
type span struct {
	start, end int64
	parent     int32
	name       layer
}

// tracer keeps spans in memory up to a cap and writes them out at the
// end of a run. A nil *tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	origin  time.Time
	spans   []span
	dropped int
}

// maxSpans bounds a traced run's span memory (about 24 bytes each).
const maxSpans = 1 << 21

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, 1<<16)}
}

// add records a span and returns its index (-1 when not recorded).
func (t *tracer) add(name layer, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		start:  int64(start.Sub(t.origin)),
		end:    int64(end.Sub(t.origin)),
		parent: parent,
		name:   name,
	})
	return int32(len(t.spans) - 1)
}

// selfTimes returns, per layer, each span's duration minus the time its
// child spans cover, in microseconds.
func (t *tracer) selfTimes() [numLayers][]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numLayers][]float64
	for i, s := range t.spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start-child[i])/1e3)
	}
	return out
}

// write dumps the spans as CSV (index, parent, layer, start_ns, end_ns).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,parent,layer,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, layerNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// histLimit is the range of durations nsHistogram counts per nanosecond.
const histLimit = 100_000

// nsHistogram records durations exactly, at nanosecond resolution, in
// constant memory however many it records: a count per nanosecond below
// histLimit, and the rarer longer durations as they are.
type nsHistogram struct {
	counts [histLimit]uint32
	over   []time.Duration
	n      int
}

func (h *nsHistogram) add(d time.Duration) {
	h.n++
	if d >= 0 && d < histLimit {
		h.counts[d]++
		return
	}
	h.over = append(h.over, d)
}

// quantile returns the q-quantile by nearest rank, as quantile does.
func (h *nsHistogram) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := min(int(q*float64(h.n)), h.n-1)
	seen := 0
	for d, c := range h.counts {
		seen += int(c)
		if seen > rank {
			return time.Duration(d)
		}
	}
	over := slices.Clone(h.over)
	slices.Sort(over)
	return over[rank-seen]
}
