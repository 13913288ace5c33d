package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/intstack"
)

// The load generator replays a benchgen evolve workload through the
// serving core: many concurrent sessions, each privately re-living the
// same wave sequence over the shared base, issuing deref-site query
// batches between waves. It is the package's proof harness — the
// overload, chaos, and bench suites all drive the server through it —
// so it enforces the serving contract as it goes:
//
//   - every refusal must be one of the typed admission errors; anything
//     else is recorded as a protocol violation in Report.Violations;
//   - with Verify set, every completed query result is checked
//     byte-identical (PointsToSet.Equal, shared context table) against a
//     direct oracle engine built over the same wave prefix the session
//     had applied when the request ran.
//
// Each session's requests are issued by one goroutine, so a session
// never has a query in flight while it applies its next wave — every
// request runs entirely within one epoch, which is what makes the
// per-epoch oracle comparison exact.

// LoadConfig shapes one load run.
type LoadConfig struct {
	// Sessions is the number of concurrent tenant sessions.
	Sessions int
	// Requests is the per-session request count.
	Requests int
	// QueriesPerRequest sizes each batch.
	QueriesPerRequest int
	// ApplyEvery applies the next evolve wave after this many requests
	// (0 disables evolution: sessions stay on the base forever).
	ApplyEvery int
	// Deadline is attached to every request; 0 means none.
	Deadline time.Duration
	// Tenants, when set, assigns tenants round-robin across sessions;
	// empty gives every session its own tenant.
	Tenants []string
	// WarmBias is the probability (0..1) that a query revisits a variable
	// the session already queried — the knob that produces cheap-lane
	// traffic once summaries are cached.
	WarmBias float64
	// Verify checks every completed result against a per-epoch oracle.
	Verify bool
	// Seed makes the run reproducible.
	Seed int64
}

// LaneStats aggregates one lane's outcomes across the run.
type LaneStats struct {
	Completed int
	Shed      int
	Expired   int
	P50       time.Duration
	P99       time.Duration
	// ShedRate is Shed / (Shed + Completed + Expired).
	ShedRate float64
}

// Report is the outcome of one load run.
type Report struct {
	Sessions int
	Issued   int
	// Refusal tallies by type; Completed counts requests that returned a
	// Response (whose individual queries may still carry engine errors).
	Completed    int
	Shed         int
	Expired      int
	QuotaDenied  int
	PanicRefused int
	Canceled     int
	// ApplyRefused counts wave applies refused with a typed error (an
	// injected apply fault, or draining); the session stays on its epoch
	// and keeps serving.
	ApplyRefused int

	// Verified counts oracle-checked query results; VerifySkipped those
	// the oracle could not complete (budget) or that the engine aborted.
	Verified     int
	VerifySkipped int

	Lanes map[string]*LaneStats

	// Violations are refusals outside the typed taxonomy — always a bug.
	Violations []error
}

type loadState struct {
	cfg LoadConfig
	srv *Server
	ev  *benchgen.EvolveProgram

	mu        sync.Mutex
	latencies [numLanes][]time.Duration
	report    Report

	oracleMu sync.Mutex
	oracles  map[uint64]*core.DynSum
}

// RunLoad drives srv with cfg.Sessions concurrent sessions replaying
// ev's waves, until every session has issued cfg.Requests requests or
// ctx is done. srv must have been built over ev.Base. The returned
// Report is complete even on early cancellation (counts reflect what
// actually ran).
func RunLoad(ctx context.Context, srv *Server, ev *benchgen.EvolveProgram, cfg LoadConfig) (*Report, error) {
	if cfg.Sessions <= 0 || cfg.Requests <= 0 {
		return nil, errors.New("serve: load config needs Sessions and Requests")
	}
	if cfg.QueriesPerRequest <= 0 {
		cfg.QueriesPerRequest = 4
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st := &loadState{cfg: cfg, srv: srv, ev: ev, oracles: make(map[uint64]*core.DynSum)}
	st.report.Sessions = cfg.Sessions
	st.report.Lanes = map[string]*LaneStats{}

	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		if len(cfg.Tenants) > 0 {
			tenant = cfg.Tenants[i%len(cfg.Tenants)]
		}
		sess, err := srv.CreateSession(fmt.Sprintf("load-%d", i), tenant)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int, sess *Session) {
			defer wg.Done()
			st.driveSession(ctx, i, sess)
		}(i, sess)
	}
	wg.Wait()

	for lane := 0; lane < numLanes; lane++ {
		ls := &LaneStats{}
		st.mu.Lock()
		lat := st.latencies[lane]
		st.mu.Unlock()
		ls.Completed = len(lat)
		ls.P50, ls.P99 = percentiles(lat)
		st.report.Lanes[Lane(lane).String()] = ls
	}
	// Shed/expired per lane come from the server's own counters, which
	// include exactly this run when the caller built a fresh server.
	snap := srv.MetricsSnapshot()
	for name, ls := range st.report.Lanes {
		lc := snap.Lanes[name]
		ls.Shed = int(lc.Shed)
		ls.Expired = int(lc.Expired)
		if total := ls.Shed + ls.Completed + ls.Expired; total > 0 {
			ls.ShedRate = float64(ls.Shed) / float64(total)
		}
	}
	return &st.report, nil
}

func (st *loadState) driveSession(ctx context.Context, idx int, sess *Session) {
	rng := rand.New(rand.NewSource(st.cfg.Seed + int64(idx)*7919))
	var queried []core.Query // session's query history, feeds WarmBias
	for n := 0; n < st.cfg.Requests; n++ {
		if ctx.Err() != nil {
			return
		}
		if st.cfg.ApplyEvery > 0 && n > 0 && n%st.cfg.ApplyEvery == 0 {
			// This goroutine is the session's only client, and Do has
			// returned for every prior request: zero in-flight queries, so
			// the apply is ordered exactly as the quiescence contract asks.
			if int(sess.Epoch())+1 < st.ev.NumWaves() {
				if err := st.applyNextWave(ctx, sess); err != nil {
					// A typed refusal (injected apply fault, draining) is a
					// legitimate outcome: the apply never touched the overlay,
					// so the session keeps serving on its current epoch. Only
					// untyped errors are protocol violations.
					var pe *PanicError
					var oe *OverloadError
					if errors.As(err, &pe) || errors.As(err, &oe) {
						st.mu.Lock()
						st.report.ApplyRefused++
						st.mu.Unlock()
					} else {
						st.violation(fmt.Errorf("session %s wave apply: %w", sess.ID, err))
						return
					}
				}
			}
		}
		epoch := sess.Epoch()
		queries := st.pickQueries(rng, int(epoch), queried)
		queried = append(queried, queries...)

		start := time.Now()
		resp, err := st.srv.Do(ctx, Request{
			Session:  sess.ID,
			Queries:  queries,
			Deadline: st.cfg.Deadline,
		})
		elapsed := time.Since(start)
		st.record(resp, err, elapsed)
		if resp != nil && st.cfg.Verify {
			st.verify(sess, epoch, resp)
		}
	}
}

func (st *loadState) applyNextWave(ctx context.Context, sess *Session) error {
	log, err := sess.Engine().NewDeltaLog()
	if err != nil {
		return err
	}
	if err := st.ev.WaveLog(log, int(sess.Epoch())+1); err != nil {
		return err
	}
	_, err = st.srv.Apply(ctx, sess.ID, log)
	return err
}

// pickQueries draws a batch from the deref sites installed through the
// session's current wave prefix, revisiting past queries with
// probability WarmBias.
func (st *loadState) pickQueries(rng *rand.Rand, epoch int, history []core.Query) []core.Query {
	derefs := st.ev.DerefsThrough(epoch)
	out := make([]core.Query, 0, st.cfg.QueriesPerRequest)
	for len(out) < st.cfg.QueriesPerRequest {
		if len(history) > 0 && rng.Float64() < st.cfg.WarmBias {
			out = append(out, history[rng.Intn(len(history))])
			continue
		}
		if len(derefs) == 0 {
			break
		}
		out = append(out, core.Query{Var: derefs[rng.Intn(len(derefs))].Var, Ctx: intstack.Empty})
	}
	return out
}

func (st *loadState) record(resp *Response, err error, elapsed time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.report.Issued++
	if err == nil {
		st.report.Completed++
		st.latencies[resp.Lane] = append(st.latencies[resp.Lane], elapsed)
		return
	}
	var (
		oe *OverloadError
		qe *QuotaError
		ee *ExpiredError
		ue *UnknownSessionError
		pe *PanicError
	)
	switch {
	case errors.As(err, &oe):
		st.report.Shed++
	case errors.As(err, &qe):
		st.report.QuotaDenied++
	case errors.As(err, &ee):
		st.report.Expired++
	case errors.As(err, &pe):
		st.report.PanicRefused++
	case errors.As(err, &ue):
		st.report.Violations = append(st.report.Violations, err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st.report.Canceled++
	default:
		st.report.Violations = append(st.report.Violations, err)
	}
}

func (st *loadState) violation(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.report.Violations = append(st.report.Violations, err)
}

// oracle returns the shared direct engine for one wave prefix, built on
// demand over a fresh BuildPrefix program but sharing the server's
// context table so points-to sets compare exactly.
func (st *loadState) oracle(epoch uint64) (*core.DynSum, error) {
	st.oracleMu.Lock()
	defer st.oracleMu.Unlock()
	if d, ok := st.oracles[epoch]; ok {
		return d, nil
	}
	prog, err := st.ev.BuildPrefix(int(epoch))
	if err != nil {
		return nil, err
	}
	d := core.NewDynSum(prog.G, st.srv.cfg.Engine, st.srv.Ctxs())
	st.oracles[epoch] = d
	return d, nil
}

// verify checks every completed query in resp against the epoch's
// oracle. The oracle serialises its own queries under oracleMu (one
// engine, many loadgen goroutines).
func (st *loadState) verify(sess *Session, epoch uint64, resp *Response) {
	d, err := st.oracle(epoch)
	if err != nil {
		st.violation(fmt.Errorf("oracle for epoch %d: %w", epoch, err))
		return
	}
	for _, r := range resp.Results {
		if r.Err != nil {
			st.mu.Lock()
			st.report.VerifySkipped++
			st.mu.Unlock()
			continue
		}
		st.oracleMu.Lock()
		want := core.NewPointsToSet()
		werr := d.Query(nil, want, r.Var, r.Ctx)
		st.oracleMu.Unlock()
		if werr != nil {
			// The cold oracle ran out of budget where the warm session
			// completed — the known schedule-dependent edge; skip.
			st.mu.Lock()
			st.report.VerifySkipped++
			st.mu.Unlock()
			continue
		}
		if !r.Pts.Equal(want) {
			st.violation(fmt.Errorf("session %s epoch %d var %d: served answer diverges from oracle", sess.ID, epoch, r.Var))
			continue
		}
		st.mu.Lock()
		st.report.Verified++
		st.mu.Unlock()
	}
}

func percentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*50/100], s[min(len(s)*99/100, len(s)-1)]
}
