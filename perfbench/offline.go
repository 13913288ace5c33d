package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dynsum/internal/andersen"
	"dynsum/internal/benchgen"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/refine"
)

// The offline workload is the batch-analysis user of the paper's tables:
// one goroutine, closed loop. Each pass builds enginesPerProgram fresh
// DynSums per program shape, over the shape's one frozen graph, as
// dynsumd's sessions share one base. Each engine answers every
// SafeCast, NullDeref and FactoryM site in paper order, then answers
// them all again warmed; the engines take turns site by site (see
// sweep). The three shapes share one edge budget, so condensation
// (xalan-cyclic) and splice-in memoisation (xalan-diamond) each have a
// program that exercises them and one (xalan) that bypasses them.
// serve, delta and HTTP do no work here.

const (
	setupReps = 5 // daemon-warm: daemons per run; setup_s is the median of their set-ups

	offlineSetups = 10 // offline-clients: set-ups per run; setup_s is their median

	// enginesPerProgram is how many independent engines a pass runs per
	// program shape. The 18 warmed engines hold about 120 MB, several
	// times the last-level cache the machine shares with its other
	// tenants, so the rates depend on memory and not on how much of that
	// cache the others leave free (README.md, "Steadiness on the build
	// host").
	enginesPerProgram = 6

	// cyclicExactSample is how many xalan-cyclic query sites are also
	// compared exactly with NOREFINE; a full NOREFINE pass there takes
	// tens of seconds and gives up on about a fifth of the sites.
	cyclicExactSample = 200

	// maxTracedPasses caps the passes a traced run records spans for, to
	// bound span memory (under maxSpans); traced and untraced passes
	// alternate until then, which is what the tracing overhead is
	// measured from.
	maxTracedPasses = 2
)

type offlineProgram struct {
	name    string
	prog    *pag.Program
	queries []pag.NodeID // every client site, paper order
	want    []int        // answer size per query, from the checked pass
	hash    []uint64     // answer object-set hash per query, from the checked pass
}

// clientQueries lists the query variable of every SafeCast, NullDeref and
// FactoryM site of p, in that order.
func clientQueries(p *pag.Program) ([]pag.NodeID, error) {
	var vars []pag.NodeID
	for _, c := range clients.Names() {
		qs, err := clients.Queries(c, p)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			vars = append(vars, q.Var)
		}
	}
	return vars, nil
}

func runOffline(cfg *config) (*outcome, error) {
	o := newOutcome()

	// Set-up: generation plus freeze of all three programs. It runs once
	// before the window and again at even intervals inside it, outside
	// the query timing, so that setup_s samples the host's speed over the
	// whole run as the rates do; the programs of the repeats are dropped.
	var setups []float64
	setUp := func() []*offlineProgram {
		runtime.GC()
		start := time.Now()
		var progs []*offlineProgram
		for _, name := range offlinePrograms {
			progs = append(progs, &offlineProgram{name: name, prog: benchgen.Generate(benchgen.ProfileByNameMust(name), cfg.seed)})
		}
		setups = append(setups, time.Since(start).Seconds())
		return progs
	}
	progs := setUp()
	total := 0
	for _, p := range progs {
		qs, err := clientQueries(p.prog)
		if err != nil {
			return nil, err
		}
		p.queries = qs
		total += len(qs)
	}
	total *= enginesPerProgram
	// The current pass's answers per engine, checked after it; engine k
	// answers for progs[k%len(progs)].
	cold := make([][]*core.PointsToSet, enginesPerProgram*len(progs))
	warm := make([][]*core.PointsToSet, len(cold))
	for k := range cold {
		n := len(progs[k%len(progs)].queries)
		cold[k] = make([]*core.PointsToSet, n)
		warm[k] = make([]*core.PointsToSet, n)
	}
	o.reportf("programs %d, engines per program %d, queries per pass %d", len(progs), enginesPerProgram, total)

	// Correctness gate, outside the timed window.
	for _, p := range progs {
		if err := checkOffline(cfg, o, p); err != nil {
			return nil, err
		}
	}

	// Timed window.
	var tr *tracer
	if cfg.trace {
		tr = newTracer(time.Now())
	}
	var (
		coldTime, warmTime   time.Duration // summed over passes
		tracedT, untracedT   []float64     // traced runs: pass times by kind
		coldLat              *nsHistogram  // untraced runs: every cold call
		counters             = map[string]core.Metrics{}
		last                 []*core.DynSum
		tracedPasses, passes int
	)
	if !cfg.trace {
		coldLat = new(nsHistogram)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	windowStart := time.Now()
	deadline := windowStart.Add(window)
	// A traced run makes at least the alternating passes its overhead
	// figure needs, however short the window.
	minPasses := 1
	if tr != nil {
		minPasses = 1 + 2*maxTracedPasses
	}
	for passes < minPasses || time.Now().Before(deadline) {
		if len(setups) < offlineSetups && time.Since(windowStart) >= time.Duration(len(setups))*window/offlineSetups {
			setUp()
		}
		var ptr *tracer
		if tr != nil && passes%2 == 1 && tracedPasses < maxTracedPasses {
			ptr = tr
			tracedPasses++
		}
		passStart := time.Now()
		last = last[:0]
		for range enginesPerProgram {
			for _, p := range progs {
				last = append(last, core.NewDynSum(p.prog.G, core.Config{}, nil))
			}
		}
		o.failed += sweep(progs, last, cold, coldLat, ptr, spanColdQuery)
		mid := time.Now()
		if passes == 0 {
			for k, p := range progs { // the first engine of each program
				counters[p.name] = last[k].Metrics().Snapshot()
			}
		}
		o.failed += sweep(progs, last, warm, nil, ptr, spanWarmQuery)
		end := time.Now()
		passTime := end.Sub(passStart)
		checkPass(o, progs, cold, warm, passes)
		coldTime += mid.Sub(passStart)
		warmTime += end.Sub(mid)
		if tr != nil && passes >= 1 && passes <= 2*maxTracedPasses {
			if ptr != nil {
				tracedT = append(tracedT, passTime.Seconds())
			} else {
				untracedT = append(untracedT, passTime.Seconds())
			}
		}
		passes++
	}
	o.e2e["setup_s"] = median(setups)
	o.reportf("setup_s: median of %d set-ups spread over the run", len(setups))
	// Pooled rates: all queries over all time. The host's speed drifts,
	// and a median of per-pass rates flips between the fast and the slow
	// passes as their shares cross one half; the pooled rate weighs each
	// by its share of the time.
	o.e2e["cold_qps"] = float64(total*passes) / coldTime.Seconds()
	o.e2e["warm_qps"] = float64(total*passes) / warmTime.Seconds()
	if coldLat != nil {
		o.e2e["p50_ms"] = ms(coldLat.quantile(0.5))
		o.e2e["p98_ms"] = ms(coldLat.quantile(0.98))
		o.reportf("p50_ms, p98_ms: latency of all %d cold query calls; p99 %.6f ms", coldLat.n, ms(coldLat.quantile(0.99)))
	}
	o.reportf("passes %d: cold_qps and warm_qps are all queries over all time of the cold (%.3f s) and warm (%.3f s) calls", passes, coldTime.Seconds(), warmTime.Seconds())

	// Engine state after the last pass: summaries, interning, memory.
	var entries, shared, unique int64
	var sum core.Metrics
	for _, d := range last {
		entries += int64(d.SummaryCount())
		s, u := d.InternStats()
		shared += s
		unique += u
		m := d.Metrics().Snapshot()
		sum.Summaries += m.Summaries
		sum.CacheHits += m.CacheHits
		sum.CacheMisses += m.CacheMisses
	}
	o.layers["core.summary_entries"] = float64(entries)
	o.layers["core.intern_shared_ratio"] = ratio(shared, shared+unique)
	o.layers["core.summaries_computed"] = float64(sum.Summaries)
	o.layers["core.cache_hit_ratio"] = ratio(sum.CacheHits, sum.CacheHits+sum.CacheMisses)
	held := len(last)
	heapMB := engineHeapMB(&last)
	o.e2e["mem_mb"] = heapMB
	o.reportf("engine_heap_mb %.3f MB (live heap of the last pass's %d warmed engines)", heapMB, held)

	for _, p := range progs {
		m := counters[p.name]
		o.layers["pag.node_reduction."+p.name] = p.prog.G.CondenseStats().NodeReduction()
		o.layers["core.edges_traversed."+p.name] = float64(m.EdgesTraversed)
		o.layers["core.tuples_visited."+p.name] = float64(m.TuplesVisited)
		o.layers["core.ppta_visits."+p.name] = float64(m.PPTAVisits)
		o.layers["core.summaries_computed."+p.name] = float64(m.Summaries)
		o.layers["core.cache_hit_ratio."+p.name] = ratio(m.CacheHits, m.CacheHits+m.CacheMisses)
		o.layers["core.spliced_summaries."+p.name] = float64(m.SplicedSummaries)
		o.layers["core.written_back."+p.name] = float64(m.WrittenBackSummaries)
		o.layers["core.failed."+p.name] = float64(m.Failed)
		o.reportf("%s cold pass: edges %d tuples %d ppta %d summaries %d spliced %d written-back %d failed %d",
			p.name, m.EdgesTraversed, m.TuplesVisited, m.PPTAVisits, m.Summaries, m.SplicedSummaries, m.WrittenBackSummaries, m.Failed)
	}

	if tr != nil {
		gen, freeze, err := generateAndFreezeTimes(cfg.seed, offlinePrograms...)
		if err != nil {
			return nil, err
		}
		o.layers["benchgen.generate_s"] = gen
		o.layers["pag.freeze_s"] = freeze
		if err := offlineDeltaLayers(cfg.seed, o, tr); err != nil {
			return nil, err
		}
		self := tr.selfTimes()
		o.layers["core.cold_query_us.p50"] = median(self[spanColdQuery])
		o.layers["core.cold_query_us.p99"], _ = tailQuantile(self[spanColdQuery])
		o.layers["core.warm_query_us.p50"] = median(self[spanWarmQuery])
		o.layers["core.warm_query_us.p99"], _ = tailQuantile(self[spanWarmQuery])
		over := 100 * (median(tracedT)/median(untracedT) - 1)
		o.layers["trace.overhead_pct"] = over
		o.reportf("tracing overhead %.2f%% (median of %d traced vs %d untraced interleaved passes)", over, len(tracedT), len(untracedT))
		if err := writeTrace(cfg, o, tr, "offline-clients"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sweep has every engine answer every client site of its program once,
// engines[k] those of progs[k%len(progs)], round-robin: site i on each
// engine in turn, so each engine still answers in paper order and all
// engines' state is in use at once. Answers go to out[k]; with lat or ptr
// non-nil each call is timed into them. It returns the number of failed
// calls, whose answers are left nil.
func sweep(progs []*offlineProgram, engines []*core.DynSum, out [][]*core.PointsToSet, lat *nsHistogram, ptr *tracer, span layer) (failed int64) {
	clocked := lat != nil || ptr != nil
	sites := 0
	for _, p := range progs {
		sites = max(sites, len(p.queries))
	}
	for i := 0; i < sites; i++ {
		for k, d := range engines {
			p := progs[k%len(progs)]
			if i >= len(p.queries) {
				continue
			}
			var t0 time.Time
			if clocked {
				t0 = time.Now()
			}
			pts, err := d.PointsTo(p.queries[i])
			if clocked {
				t1 := time.Now()
				if lat != nil {
					lat.add(t1.Sub(t0))
				}
				ptr.add(span, -1, t0, t1)
			}
			if err != nil {
				failed++
				pts = nil
			}
			out[k][i] = pts
		}
	}
	return failed
}

// checkOffline runs the correctness gate for one program on a fresh
// engine: exact equality with NOREFINE on xalan and xalan-diamond; on
// xalan-cyclic every answer must lie inside the Andersen whole-program
// solution, and a seeded sample must also equal NOREFINE exactly. It
// records each answer's size and object set, which every timed pass
// must reproduce (checkPass).
func checkOffline(cfg *config, o *outcome, p *offlineProgram) error {
	g := p.prog.G
	ctxs := new(intstack.Table)
	d := core.NewDynSum(g, core.Config{}, ctxs)
	nr := refine.NewNoRefine(g, core.Config{}, ctxs)
	exact := map[pag.NodeID]bool{}
	var whole *andersen.Result
	if p.name == "xalan-cyclic" {
		whole = andersen.Solve(g, nil, nil)
		rng := rand.New(rand.NewSource(cfg.seed))
		for len(exact) < min(cyclicExactSample, len(p.queries)) {
			exact[p.queries[rng.Intn(len(p.queries))]] = true
		}
	} else {
		for _, v := range p.queries {
			exact[v] = true
		}
	}
	oracle := map[pag.NodeID]*core.PointsToSet{}
	var checked, subsetOnly, unchecked int
	p.want = make([]int, len(p.queries))
	p.hash = make([]uint64, len(p.queries))
	for round := 0; round < 2; round++ { // cold answers, then warm
		for i, v := range p.queries {
			got, err := d.PointsTo(v)
			if err != nil {
				return fmt.Errorf("%s: checked pass: node %d: %w", p.name, v, err)
			}
			if round == 0 {
				p.want[i] = got.Len()
				p.hash[i] = objectsHash(got.Objects())
			} else if got.Len() != p.want[i] || objectsHash(got.Objects()) != p.hash[i] {
				o.wrong("%s: warm answer for node %d differs from cold answer", p.name, v)
			}
			if whole != nil {
				for _, obj := range got.Objects() {
					if !whole.Has(v, obj) {
						o.wrong("%s: node %d points to %d, outside the Andersen solution", p.name, v, obj)
					}
				}
			}
			if !exact[v] {
				subsetOnly++
				continue
			}
			want, ok := oracle[v]
			if !ok {
				want, err = nr.PointsTo(v)
				if err != nil {
					want = nil // NOREFINE gave up within its budget
				}
				oracle[v] = want
			}
			switch {
			case want != nil:
				if !got.Equal(want) {
					o.wrong("%s: node %d: DYNSUM %v, NOREFINE %v", p.name, v, got, want)
				}
				checked++
			case whole != nil:
				subsetOnly++
			default:
				unchecked++
			}
		}
	}
	o.layers["check.subset_only"] += float64(subsetOnly)
	o.layers["check.unchecked"] += float64(unchecked)
	o.reportf("%s gate: %d answers equal to NOREFINE, %d checked only as a subset of Andersen, %d unchecked; timed passes must reproduce every answer",
		p.name, checked, subsetOnly, unchecked)
	return nil
}

// checkPass compares every answer of one timed pass, cold and warm, with
// the answer the gate checked for the same site: the same number of
// (object, context) pairs and the same object set. It runs after the
// pass, on the sets the timed calls returned, so a set that changed
// after it was returned fails too. Failed calls, counted already, left
// nil. Engine k answered for progs[k%len(progs)] (sweep).
func checkPass(o *outcome, progs []*offlineProgram, cold, warm [][]*core.PointsToSet, pass int) {
	for kind, byEngine := range [2][][]*core.PointsToSet{cold, warm} {
		for k, answers := range byEngine {
			p := progs[k%len(progs)]
			for i, pts := range answers {
				o.attempted++
				if pts == nil {
					continue
				}
				if pts.Len() != p.want[i] || objectsHash(pts.Objects()) != p.hash[i] {
					o.wrong("%s engine %d pass %d: %s answer for node %d differs from the checked answer", p.name, k/len(progs), pass, [2]string{"cold", "warm"}[kind], p.queries[i])
				}
			}
			clear(answers)
		}
	}
}

// generateAndFreezeTimes times benchgen.Generate for each named profile
// (generation including its freeze), and Graph.Freeze on a mutable copy
// of the same program: its load-order twin from GenerateEvolve, which
// holds the same methods, nodes and edges under wave-major IDs.
func generateAndFreezeTimes(seed int64, names ...string) (gen, freeze float64, err error) {
	for _, name := range names {
		p := benchgen.ProfileByNameMust(name)
		start := time.Now()
		benchgen.Generate(p, seed)
		gen += time.Since(start).Seconds()
		ev, err := benchgen.GenerateEvolve(p, seed, 2)
		if err != nil {
			return 0, 0, err
		}
		twin, err := ev.BuildPrefixMutable(ev.NumWaves() - 1)
		if err != nil {
			return 0, 0, err
		}
		start = time.Now()
		twin.G.Freeze()
		freeze += time.Since(start).Seconds()
	}
	return gen, freeze, nil
}

// engineHeapMB measures the live heap the engines in *engines hold: the
// heap after GC with them held, minus the heap after GC once released.
func engineHeapMB(engines *[]*core.DynSum) float64 {
	held := liveHeap()
	runtime.KeepAlive(*engines)
	*engines = nil
	return float64(int64(held)-int64(liveHeap())) / (1 << 20)
}

// liveHeap collects twice, so pooled per-query scratch is dropped too,
// and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func writeTrace(cfg *config, o *outcome, tr *tracer, workload string) error {
	path := fmt.Sprintf("%s/trace-%s-seed%d.csv", cfg.outDir, workload, cfg.seed)
	if err := tr.write(path); err != nil {
		return err
	}
	o.reportf("trace: %d spans written to %s (%d not recorded past the cap)", len(tr.spans), path, tr.dropped)
	return nil
}
