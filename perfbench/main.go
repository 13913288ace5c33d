// Command perfbench is the repository benchmark. It runs one seeded
// workload for a fixed time, checks every answer it measured against a
// reference analysis, and prints a report followed by one JSON result
// line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they
// are the per-layer set, taken from spans recorded around each call into
// a layer. Both sets are listed in BENCHMARK.json and explained, with the
// layer-to-end-to-end prediction table, in perfbench/README.md.
//
// Workloads:
//
//	offline-clients  in-process DynSum engines answering the three paper
//	                 clients on xalan, xalan-cyclic and xalan-diamond
//	daemon-warm      fresh dynsumd processes over loopback HTTP, primed
//	                 sessions, open-loop cheap-lane queries
//
// Run it through run.sh, which builds this program and dynsumd from the
// checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	dynsumd string // path of the dynsumd binary built from this checkout
	outDir  string // scratch directory for programs, traces and daemon logs
	procs   int    // CPUs available: bounds GOMAXPROCS, connections, workers
}

// metricDef is one metric name with its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd is the end-to-end metric set every untraced run prints. The
// contract asks for every metric on every workload, so each has a
// definition per workload (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_qps", "1/s"},
	{"warm_qps", "1/s"},
	{"p50_ms", "ms"},
	{"p98_ms", "ms"},
	{"mem_mb", "MB"},
}

// offlinePrograms are the three shapes of the paper-scale xalan row the
// offline workload answers; their per-program counters are per-layer
// metrics.
var offlinePrograms = []string{"xalan", "xalan-cyclic", "xalan-diamond"}

// perProgramCounters are the exact core counters of one cold pass.
var perProgramCounters = []metricDef{
	{"core.edges_traversed", "count"},
	{"core.tuples_visited", "count"},
	{"core.ppta_visits", "count"},
	{"core.summaries_computed", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.spliced_summaries", "count"},
	{"core.written_back", "count"},
	{"core.failed", "count"},
}

// perLayer is the per-layer metric set every traced run prints. A layer
// a workload bypasses reports 0 (README.md lists which).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"benchgen.generate_s", "s"},
		{"pag.freeze_s", "s"},
		{"core.cold_query_us.p50", "us"},
		{"core.cold_query_us.p99", "us"},
		{"core.warm_query_us.p50", "us"},
		{"core.warm_query_us.p99", "us"},
		{"core.summaries_computed", "count"},
		{"core.cache_hit_ratio", "ratio"},
		{"core.summary_entries", "count"},
		{"core.intern_shared_ratio", "ratio"},
		{"serve.queue_wait_us.cheap.p50", "us"},
		{"serve.queue_wait_us.cheap.p99", "us"},
		{"serve.queue_wait_us.whale.p50", "us"},
		{"serve.queue_wait_us.whale.p99", "us"},
		{"serve.run_us.cheap.p50", "us"},
		{"serve.run_us.cheap.p99", "us"},
		{"serve.run_us.whale.p50", "us"},
		{"serve.run_us.whale.p99", "us"},
		{"serve.cheap_share", "ratio"},
		{"dynsumd.overhead_us.p50", "us"},
		{"dynsumd.overhead_us.p99", "us"},
		{"latency.phase_p99_ms", "ms"},
		{"delta.apply_ms", "ms"},
		{"delta.invalidated_summaries", "count"},
		{"delta.overlay_fraction", "ratio"},
		{"delta.compactions", "count"},
		{"generator.late_p99_us", "us"},
		{"generator.backlog", "count"},
		{"check.subset_only", "count"},
		{"check.unchecked", "count"},
		{"trace.overhead_pct", "%"},
	}
	for _, p := range offlinePrograms {
		defs = append(defs, metricDef{"pag.node_reduction." + p, "%"})
		for _, c := range perProgramCounters {
			defs = append(defs, metricDef{c.name + "." + p, c.unit})
		}
	}
	return defs
}()

// outcome is one workload run's result.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	e2e       map[string]float64
	layers    map[string]float64
	report    []string // human-readable lines printed before the result
}

func newOutcome() *outcome {
	return &outcome{correct: true, e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) reportf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// wrong records a failed correctness check; any one fails the run.
func (o *outcome) wrong(format string, args ...any) {
	if o.correct {
		o.reportf("WRONG ANSWER: "+format, args...)
	}
	o.correct = false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// selectMetrics returns exactly the metrics of defs, with their units; a
// value the workload set outside defs is a bug in the benchmark.
func selectMetrics(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			panic("perfbench: metric " + name + " is not declared")
		}
	}
	return out
}

var workloads = map[string]func(*config) (*outcome, error){
	"offline-clients": runOffline,
	"daemon-warm":     runDaemonWarm,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: offline-clients or daemon-warm")
		seed     = flag.Int64("seed", 1, "seed of the generated programs and request streams")
		seconds  = flag.Float64("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		dynsumd  = flag.String("dynsumd", "", "path of the dynsumd binary (daemon-warm)")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for generated programs, traces and daemon logs")
		spinCPU  = flag.Int("spin", -1, "internal: run as a spinner on this CPU (see startSpinners)")
	)
	flag.Parse()
	if *spinCPU >= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: spinner:", spin(*spinCPU))
		os.Exit(1)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload offline-clients|daemon-warm, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	cfg := &config{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		dynsumd: *dynsumd,
		outDir:  *outDir,
		procs:   procs,
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", *workload+":", err)
		os.Exit(1)
	}

	fmt.Printf("workload %s seed %d seconds %g trace %d procs %d\n", *workload, *seed, *seconds, *trace, procs)
	for _, line := range o.report {
		fmt.Println("  " + line)
	}
	defs, values := endToEnd, o.e2e
	if cfg.trace {
		defs, values = perLayer, o.layers
	}
	metrics := selectMetrics(defs, values)
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-36s %16.6f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	line, err := json.Marshal(resultLine{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !o.correct {
		os.Exit(1)
	}
}
