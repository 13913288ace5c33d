package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/pag"
	"dynsum/internal/refine"
)

// The daemon workload drives fresh dynsumd processes over loopback HTTP
// with an open loop: primed sessions are asked repeated questions (the
// IDE/JIT user; HTTP, JSON, admission and queues, almost no PPTA work).

const (
	daemonSessions     = 4
	primeBatch         = 64  // sites per request of a closed-loop pass
	nominalShare       = 0.6 // share of the window spent at the nominal rate
	ladderRungs        = 6   // rates above the nominal one tried for max_rps
	warmRepeats        = 3   // warm closed-loop passes per session and daemon
	generatorGCPercent = 400

	// The open loop: requests of requestSites sites at nominalRate per
	// second; max_rps is the highest rung, each ladderStep times the
	// last, whose p99 stays within latencyLimit.
	requestSites = 4
	nominalRate  = 2000.0
	latencyLimit = time.Millisecond
	ladderStep   = 1.3

	// lateLimit marks a run invalid when the generator's own p99
	// lateness (with a connection idle) exceeds it.
	lateLimit = 250 * time.Microsecond
)

// daemonRun is the state one daemon workload run shares between its
// rounds.
type daemonRun struct {
	cfg      *config
	o        *outcome
	spinners func() // stops the spinners (startSpinners)
	conns    int
	pagPath  string

	setups []float64 // setup_s samples

	// ref holds NOREFINE's object-set hash per client site, computed
	// before the first daemon starts; sites NOREFINE gave up on are
	// absent. Every answer is checked against it as it arrives.
	ref map[int64]uint64

	mu                 sync.Mutex
	checked, unchecked int
	tracers            []*tracer
}

func newDaemonRun(cfg *config) (*daemonRun, error) {
	spinners, err := startSpinners()
	if err != nil {
		return nil, err
	}
	cpu, err := pinToLastCPU()
	if err != nil {
		spinners()
		return nil, err
	}
	// This process is the load generator, not the system under test: it
	// collects garbage less often so its own GC cycles delay fewer
	// replies.
	debug.SetGCPercent(generatorGCPercent)
	r := &daemonRun{cfg: cfg, o: newOutcome(), spinners: spinners, conns: cfg.procs}
	r.o.reportf("perfbench and dynsumd share CPU %d; %d connections; idle-class spinners on every CPU", cpu, r.conns)
	if cfg.trace {
		origin := time.Now()
		for c := 0; c < r.conns; c++ {
			r.tracers = append(r.tracers, newTracer(origin))
		}
	}
	return r, nil
}

func sessionID(s int) string { return "s" + strconv.Itoa(s) }

// startSetUp starts a fresh daemon, creates the sessions and runs
// prime(d), and records the time all that took as one setup_s sample.
func (r *daemonRun) startSetUp(ctx context.Context, prime func(*daemon)) (*daemon, error) {
	start := time.Now()
	d, err := startDaemon(r.cfg, r.pagPath, r.conns)
	if err != nil {
		return nil, err
	}
	for s := 0; s < daemonSessions && err == nil; s++ {
		err = d.createSession(ctx, sessionID(s))
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	prime(d)
	r.setups = append(r.setups, time.Since(start).Seconds())
	return d, nil
}

// passRate pools closed-loop passes, over all rounds of a run, into one
// queries-per-second figure: total queries over total time, so a GC cycle
// or a slow spell of the host that lands in some passes and not others
// weighs in by its share of the time.
type passRate struct {
	queries int
	elapsed time.Duration
}

func (p *passRate) qps() float64 { return float64(p.queries) / p.elapsed.Seconds() }

// closedPass answers vars on one session in batches of primeBatch over
// all connections, each sending its next batch once the last returned,
// and adds the pass to rate.
func (r *daemonRun) closedPass(ctx context.Context, d *daemon, session int, vars []pag.NodeID, rate *passRate) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	batches := (len(vars) + primeBatch - 1) / primeBatch
	start := time.Now()
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1) - 1)
				if b >= batches {
					return
				}
				batch := vars[b*primeBatch : min((b+1)*primeBatch, len(vars))]
				var rec opRecord
				r.query(ctx, d, c, session, batch, &rec)
			}
		}()
	}
	wg.Wait()
	rate.queries += len(vars)
	rate.elapsed += time.Since(start)
}

// query sends one query request and records its outcome.
func (r *daemonRun) query(ctx context.Context, d *daemon, conn, session int, vars []pag.NodeID, rec *opRecord) {
	sent := time.Now()
	reply, err := d.query(ctx, sessionID(session), vars)
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.o.attempted++
	if err != nil {
		rec.failed = true
		r.o.failed++
		if r.o.failed <= 5 {
			r.o.reportf("failed query: %v", err)
		}
		return
	}
	rec.cheap = reply.Lane == "cheap"
	rec.queued = time.Duration(reply.QueuedNS)
	rec.ran = time.Duration(reply.RanNS)
	for _, res := range reply.Results {
		if res.Err != "" {
			rec.failed = true
			continue
		}
		switch want, ok := r.ref[res.Var]; {
		case !ok:
			r.unchecked++
		case want == objectsHash(res.Objects):
			r.checked++
		default:
			r.o.wrong("session %d node %d: answer differs from NOREFINE", session, res.Var)
		}
	}
	if rec.failed {
		r.o.failed++
	}
	if tr := r.tracer(conn); tr != nil && rec.traced {
		parent := tr.add(spanHTTPQuery, -1, sent, end)
		runStart := end.Add(-rec.ran)
		tr.add(spanServeQueue, parent, runStart.Add(-rec.queued), runStart)
		tr.add(spanServeRun, parent, runStart, end)
	}
}

func (r *daemonRun) tracer(conn int) *tracer {
	if r.tracers == nil {
		return nil
	}
	return r.tracers[conn]
}

// ladder runs fixed-rate phases above the nominal rate, each dur long,
// until one misses the latency limit, and returns the highest rate
// that met it (0 when the nominal rate itself missed it).
func (r *daemonRun) ladder(ctx context.Context, nominal *phaseResult, dur time.Duration, makeOps func(rate float64, dur time.Duration) []op, do func(context.Context, int, *op, *opRecord)) float64 {
	best := 0.0
	if r.meetsLimit(nominal) {
		best = nominalRate
	}
	r.o.reportf("rung %8.0f req/s: %s", nominalRate, r.rungLine(nominal))
	if best == 0 {
		return 0
	}
	rate := nominalRate
	for k := 0; k < ladderRungs; k++ {
		rate *= ladderStep
		res := runPhase(ctx, makeOps(rate, dur), r.conns, 50*latencyLimit, do)
		r.o.reportf("rung %8.0f req/s: %s", rate, r.rungLine(res))
		if !r.meetsLimit(res) {
			break
		}
		best = rate
	}
	return best
}

// meetsLimit: every operation sent and none failed, p99 within the limit,
// and the backlog not grown: the last tenth of operations still within
// the limit at the median.
func (r *daemonRun) meetsLimit(res *phaseResult) bool {
	if res.aborted {
		return false
	}
	st := summarise(res)
	if st.failed > 0 || st.p99 > ms(latencyLimit) {
		return false
	}
	var tail []float64
	for _, rec := range res.recs[len(res.recs)*9/10:] {
		if !rec.sent {
			return false
		}
		tail = append(tail, float64(rec.latency)/1e6)
	}
	return median(tail) <= ms(latencyLimit)
}

func (r *daemonRun) rungLine(res *phaseResult) string {
	st := summarise(res)
	return fmt.Sprintf("sent %d failed %d p50 %.3f ms p%.4g %.3f ms backlog max %d aborted %v",
		st.sent, st.failed, st.p50, st.pct, st.p99, res.backlogMax, res.aborted)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// report records the nominal phase's latency and layer metrics and
// writes the trace.
func (r *daemonRun) report(nominal *phaseResult, rounds int, maxRPS float64) error {
	o := r.o
	st := summarise(nominal)
	o.e2e["p50_ms"] = st.p50
	o.e2e["p98_ms"] = st.p98
	o.layers["latency.phase_p99_ms"] = st.p99
	lanes := [2]string{"cheap", "whale"}
	for l, name := range lanes {
		o.layers["serve.queue_wait_us."+name+".p50"] = median(st.queueUS[l])
		o.layers["serve.queue_wait_us."+name+".p99"], _ = tailQuantile(st.queueUS[l])
		o.layers["serve.run_us."+name+".p50"] = median(st.runUS[l])
		o.layers["serve.run_us."+name+".p99"], _ = tailQuantile(st.runUS[l])
	}
	o.layers["serve.cheap_share"] = float64(st.cheap) / float64(max(1, len(st.latMS)))
	o.layers["dynsumd.overhead_us.p50"] = median(st.overheadUS)
	o.layers["dynsumd.overhead_us.p99"], _ = tailQuantile(st.overheadUS)
	o.layers["generator.late_p99_us"] = st.latePct99
	o.layers["generator.backlog"] = float64(nominal.backlogMax)
	valid := st.latePct99 <= float64(lateLimit)/1e3 && !nominal.aborted
	o.reportf("nominal %.0f req/s x %d sites in %d rounds, one per daemon: %d requests, %d failed; latency from due time p50 %.4f ms, p98 %.4f ms, p%.4g %.4f ms",
		nominalRate, requestSites, rounds, st.sent, st.failed, st.p50, st.p98, st.pct, st.p99)
	o.reportf("cheap-lane share %.4f; generator lateness p99 %.1f us, backlog max %d: run valid %v",
		o.layers["serve.cheap_share"], st.latePct99, nominal.backlogMax, valid)
	o.reportf("max_rps %.0f req/s (p99 limit %v)", maxRPS, latencyLimit)
	o.reportf("fail_rate %.6f (%d of %d operations)", ratio(o.failed, o.attempted), o.failed, o.attempted)

	if !r.cfg.trace {
		return nil
	}
	gen, freeze, err := generateAndFreezeTimes(r.cfg.seed, "xalan")
	if err != nil {
		return err
	}
	o.layers["benchgen.generate_s"] = gen
	o.layers["pag.freeze_s"] = freeze
	var traced, untraced []float64
	for _, rec := range nominal.recs {
		if rec.sent && !rec.failed {
			if rec.traced {
				traced = append(traced, float64(rec.latency))
			} else {
				untraced = append(untraced, float64(rec.latency))
			}
		}
	}
	over := 100 * (median(traced)/median(untraced) - 1)
	o.layers["trace.overhead_pct"] = over
	o.reportf("tracing overhead %.2f%% (median latency of %d traced vs %d untraced interleaved requests)", over, len(traced), len(untraced))
	all := newTracer(r.tracers[0].origin)
	for _, tr := range r.tracers {
		base := int32(len(all.spans))
		for _, s := range tr.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all.spans = append(all.spans, s)
		}
		all.dropped += tr.dropped
	}
	return writeTrace(r.cfg, o, all, "daemon-warm")
}

// noRefineHashes answers every site with NOREFINE on g and returns the
// object-set hash of each answer it did not give up on.
func noRefineHashes(g *pag.Graph, sites []pag.NodeID) map[int64]uint64 {
	eng := refine.NewNoRefine(g, core.Config{}, nil)
	ref := make(map[int64]uint64, len(sites))
	for _, v := range sites {
		if pts, err := eng.PointsTo(v); err == nil {
			ref[int64(v)] = objectsHash(pts.Objects())
		}
	}
	return ref
}

// runDaemonWarm runs setupReps rounds, each on a fresh daemon: set-up
// and priming (a setup_s sample; priming is pooled into cold_qps), a
// fifth of the nominal open-loop phase, then warm closed-loop passes
// (pooled into warm_qps) and the daemon's peak RSS. The last round then climbs the rate ladder.
// Spreading the nominal phase over the rounds keeps a slow spell of the
// shared machine from deciding a run's latency alone.
func runDaemonWarm(cfg *config) (*outcome, error) {
	ctx := context.Background()
	r, err := newDaemonRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.spinners()
	o := r.o
	prog := benchgen.Generate(benchgen.ProfileByNameMust("xalan"), cfg.seed)
	r.pagPath = cfg.outDir + "/daemon-warm.pag"
	if err := writePAG(r.pagPath, prog); err != nil {
		return nil, err
	}
	sites, err := clientQueries(prog)
	if err != nil {
		return nil, err
	}
	r.ref = noRefineHashes(prog.G, sites)
	// Only the sites and their reference answers stay in the generator's
	// heap during the window.
	prog = nil

	var (
		cold, warm passRate // pooled over all rounds
		rss        []float64
	)
	prime := func(d *daemon) {
		for s := 0; s < daemonSessions; s++ {
			r.closedPass(ctx, d, s, sites, &cold)
		}
	}
	again := func(d *daemon) {
		for rep := 0; rep < warmRepeats; rep++ {
			for s := 0; s < daemonSessions; s++ {
				r.closedPass(ctx, d, s, sites, &warm)
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	draw := func() (int, []float64) {
		s := rng.Intn(daemonSessions)
		d := make([]float64, requestSites)
		for i := range d {
			d[i] = rng.Float64()
		}
		return s, d
	}
	var (
		n   atomic.Int64
		cur *daemon // the round's daemon
	)
	do := func(ctx context.Context, conn int, op *op, rec *opRecord) {
		vars := make([]pag.NodeID, len(op.draws))
		for i, u := range op.draws {
			vars[i] = sites[int(u*float64(len(sites)))]
		}
		rec.traced = cfg.trace && n.Add(1)%2 == 0
		r.query(ctx, cur, conn, op.session, vars, rec)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	nominalDur := time.Duration(float64(window) * nominalShare)
	roundDur := nominalDur / setupReps
	rungDur := (window - nominalDur) / ladderRungs

	var (
		nominal = &phaseResult{}
		maxRPS  float64
	)
	for round := 0; round < setupReps; round++ {
		d, err := r.startSetUp(ctx, prime)
		if err != nil {
			return nil, err
		}
		cur = d
		nominal.join(runPhase(ctx, fixedRate(nominalRate, roundDur, draw), r.conns, 50*latencyLimit, do))
		if round == 0 {
			err = r.engineLayers(ctx, d)
		}
		if err == nil {
			again(d)
			var hw float64
			hw, err = d.peakRSSMB()
			rss = append(rss, hw)
		}
		if err == nil && round == setupReps-1 {
			maxRPS = r.ladder(ctx, nominal, rungDur, func(rate float64, dur time.Duration) []op { return fixedRate(rate, dur, draw) }, do)
		}
		d.stop()
		if err != nil {
			return nil, err
		}
	}
	o.e2e["setup_s"] = median(r.setups)
	o.e2e["cold_qps"] = cold.qps()
	o.e2e["warm_qps"] = warm.qps()
	o.e2e["mem_mb"] = median(rss)
	o.reportf("setup_s: median of %d fresh daemons (process start, /readyz, %d sessions, priming)", len(r.setups), daemonSessions)
	o.reportf("cold_qps: pooled rate of priming %d sessions on %d sites on each of %d daemons; warm_qps: pooled rate of %d repeat passes on each (batches of %d, %d connections, closed loop)",
		daemonSessions, len(sites), len(r.setups), warmRepeats*daemonSessions, primeBatch, r.conns)
	o.reportf("mem_mb: median over %d daemons of dynsumd's peak RSS (VmHWM) after the warm passes", len(rss))
	o.layers["check.unchecked"] = float64(r.unchecked)
	o.reportf("gate: %d answers equal to NOREFINE (object sets), %d unchecked", r.checked, r.unchecked)
	if err := r.report(nominal, setupReps, maxRPS); err != nil {
		return nil, err
	}
	return o, nil
}

// engineLayers records the engine counters dynsumd's /metrics sums over
// the sessions of d.
func (r *daemonRun) engineLayers(ctx context.Context, d *daemon) error {
	m, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	r.o.layers["core.summaries_computed"] = float64(m.Engine.Summaries)
	r.o.layers["core.cache_hit_ratio"] = ratio(m.Engine.CacheHits, m.Engine.CacheHits+m.Engine.CacheMisses)
	return nil
}
