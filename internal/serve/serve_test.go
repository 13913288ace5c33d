package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
)

// testEngineCfg mirrors the enginetest suites: a budget large enough
// that every query on the scaled fixtures completes.
var testEngineCfg = core.Config{Budget: 150_000}

func testEvolve(t *testing.T, waves int) *benchgen.EvolveProgram {
	t.Helper()
	p := benchgen.ProfileByNameMust("soot-c").Scaled(0.004)
	ev, err := benchgen.GenerateEvolve(p, 7, waves)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func newTestServer(t *testing.T, ev *benchgen.EvolveProgram, cfg Config) *Server {
	t.Helper()
	if cfg.Engine.Budget == 0 {
		cfg.Engine = testEngineCfg
	}
	srv, err := NewServer(ev.Base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx) // ErrNotRunning when the test already drained
	})
	return srv
}

// queryVars returns one Query per deref site installed through wave k.
func queryVars(ev *benchgen.EvolveProgram, k int) []core.Query {
	var out []core.Query
	for _, d := range ev.DerefsThrough(k) {
		out = append(out, core.Query{Var: d.Var, Ctx: intstack.Empty})
	}
	return out
}

// applyWave builds wave k's delta log against sess's engine and applies
// it through the server.
func applyWave(t *testing.T, srv *Server, sess *Session, ev *benchgen.EvolveProgram, k int) {
	t.Helper()
	log, err := sess.Engine().NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.WaveLog(log, k); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply(context.Background(), sess.ID, log); err != nil {
		t.Fatalf("apply wave %d: %v", k, err)
	}
}

// goroutineStable waits until the process goroutine count settles back
// to at most base (same contract as core's batch leak assertions).
func goroutineStable(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine count stuck at %d, want <= %d: serve lifecycle leak", runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServedAnswersMatchOracle: every answer served through admission,
// lanes and workers is byte-identical (shared context table,
// PointsToSet.Equal) to a direct engine over the same wave prefix, at
// every epoch of the evolve replay.
func TestServedAnswersMatchOracle(t *testing.T) {
	ev := testEvolve(t, 3)
	srv := newTestServer(t, ev, Config{})
	sess, err := srv.CreateSession("s1", "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < ev.NumWaves(); epoch++ {
		if epoch > 0 {
			applyWave(t, srv, sess, ev, epoch)
		}
		prefix, err := ev.BuildPrefix(epoch)
		if err != nil {
			t.Fatal(err)
		}
		oracle := core.NewDynSum(prefix.G, testEngineCfg, srv.Ctxs())
		queries := queryVars(ev, epoch)
		for len(queries) > 0 {
			n := min(8, len(queries))
			batch := queries[:n]
			queries = queries[n:]
			resp, err := srv.Do(context.Background(), Request{Session: "s1", Queries: batch})
			if err != nil {
				t.Fatalf("epoch %d: Do: %v", epoch, err)
			}
			for i, r := range resp.Results {
				if r.Err != nil {
					t.Fatalf("epoch %d query %d: %v", epoch, i, r.Err)
				}
				want, werr := queryIn(nil, oracle, r.Var, r.Ctx)
				if werr != nil {
					t.Fatalf("epoch %d oracle var %d: %v", epoch, r.Var, werr)
				}
				if !r.Pts.Equal(want) {
					t.Fatalf("epoch %d var %d: served answer diverges from oracle", epoch, r.Var)
				}
			}
		}
	}
}

// TestOverloadShedsTyped drives a 1-worker, depth-2 queue at far beyond
// capacity. The contract: some requests shed, every refusal is a typed
// *OverloadError, every admitted request completes with oracle-identical
// answers, and the run terminates (bounded queue, no deadlock).
func TestOverloadShedsTyped(t *testing.T) {
	ev := testEvolve(t, 1)
	srv := newTestServer(t, ev, Config{Workers: 1, QueueDepth: 2})
	sess, err := srv.CreateSession("s1", "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	gate, wedgedIn, firstShed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var wedgeOnce sync.Once
	sess.Engine().Tracer = func(core.TraceEvent) {
		wedgeOnce.Do(func() {
			close(wedgedIn)
			<-gate
		})
	}
	queries := queryVars(ev, 0)
	if len(queries) < 4 {
		t.Fatalf("fixture has only %d deref queries", len(queries))
	}
	oracle := core.NewDynSum(ev.Base.G, testEngineCfg, srv.Ctxs())

	const clients = 50
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		responses []*Response
		refusals  []error
		shedOnce  sync.Once
	)
	record := func(resp *Response, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			refusals = append(refusals, err)
			shedOnce.Do(func() { close(firstShed) })
			return
		}
		responses = append(responses, resp)
	}
	// Wedge the whale lane's worker on a cold request before the burst,
	// so the overload does not depend on how fast the worker drains the
	// queue while the clients start: the burst meets a full queue, and
	// the gate opens once the first refusal is in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		record(srv.Do(context.Background(), Request{Session: "s1", Queries: queries[:1]}))
	}()
	<-wedgedIn
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := queries[c%len(queries) : c%len(queries)+1]
			record(srv.Do(context.Background(), Request{Session: "s1", Queries: q}))
		}(c)
	}
	select {
	case <-firstShed:
	case <-time.After(10 * time.Second):
	}
	close(gate)
	wg.Wait()

	if len(refusals) == 0 {
		t.Fatal("no request shed at 25x queue capacity")
	}
	for _, err := range refusals {
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("refusal is not *OverloadError: %v (%T)", err, err)
		}
		if oe.QueueCap != 2 {
			t.Errorf("OverloadError.QueueCap = %d, want 2", oe.QueueCap)
		}
	}
	for _, resp := range responses {
		for _, r := range resp.Results {
			if r.Err != nil {
				t.Fatalf("admitted query failed: %v", r.Err)
			}
			want, werr := queryIn(nil, oracle, r.Var, r.Ctx)
			if werr != nil {
				t.Fatal(werr)
			}
			if !r.Pts.Equal(want) {
				t.Fatalf("var %d: answer under overload diverges from oracle", r.Var)
			}
		}
	}
	snap := srv.MetricsSnapshot()
	var shed, admitted int64
	for _, lc := range snap.Lanes {
		shed += lc.Shed
		admitted += lc.Admitted
	}
	if int(shed) != len(refusals) || int(admitted) != len(responses) {
		t.Errorf("metrics shed/admitted = %d/%d, observed %d/%d", shed, admitted, len(refusals), len(responses))
	}
	if tc := snap.Tenants["tenant-a"]; tc.Admitted != admitted || tc.Shed != shed {
		t.Errorf("tenant counters %+v disagree with lanes (admitted %d shed %d)", tc, admitted, shed)
	}
}

// TestLaneClassification: a cold footprint routes to the whale lane;
// once its summaries are cached the same query routes cheap.
func TestLaneClassification(t *testing.T) {
	ev := testEvolve(t, 1)
	srv := newTestServer(t, ev, Config{})
	if _, err := srv.CreateSession("s1", "t"); err != nil {
		t.Fatal(err)
	}
	q := queryVars(ev, 0)[:1]
	resp, err := srv.Do(context.Background(), Request{Session: "s1", Queries: q})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lane != LaneWhale {
		t.Fatalf("cold query ran in %s lane, want whale", resp.Lane)
	}
	resp, err = srv.Do(context.Background(), Request{Session: "s1", Queries: q})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lane != LaneCheap {
		t.Fatalf("warm repeat ran in %s lane, want cheap", resp.Lane)
	}
}

// TestCheapLaneFlowsBesideWhales wedges the whale lane's only worker on
// a blocked traversal, fills the whale queue to shedding, and asserts
// warm cheap-lane traffic keeps completing unimpeded the whole time —
// the isolation the two lanes exist for.
func TestCheapLaneFlowsBesideWhales(t *testing.T) {
	ev := testEvolve(t, 1)
	srv := newTestServer(t, ev, Config{Workers: 1, QueueDepth: 2})
	whaleSess, err := srv.CreateSession("whales", "tw")
	if err != nil {
		t.Fatal(err)
	}
	cheapSess, err := srv.CreateSession("cheap", "tc")
	if err != nil {
		t.Fatal(err)
	}
	queries := queryVars(ev, 0)
	if len(queries) < 8 {
		t.Fatalf("fixture has only %d deref queries", len(queries))
	}
	// Warm the cheap session's footprint directly (the test owns ordering,
	// so driving the engine outside the session lock is safe here).
	cheapQ := queries[:3]
	for _, q := range cheapQ {
		if _, err := queryIn(nil, cheapSess.Engine(), q.Var, q.Ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Wedge the whale worker: the first traversal event blocks until gate
	// closes, holding the lane's one worker mid-request. Wait for the
	// worker to actually be inside the gate before issuing fill traffic —
	// otherwise a fill request can win the race for the worker and wedge
	// itself, and its cooperative deadline-cancel can never fire inside
	// the blocked Tracer callback.
	gate := make(chan struct{})
	wedgedIn := make(chan struct{})
	var once sync.Once
	whaleSess.Engine().Tracer = func(core.TraceEvent) {
		once.Do(func() {
			close(wedgedIn)
			<-gate
		})
	}
	wedged := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), Request{Session: "whales", Queries: queries[3:4]})
		wedged <- err
	}()
	<-wedgedIn
	// Fill the whale queue behind the wedged worker until shedding starts.
	deadline := time.Now().Add(5 * time.Second)
	shed := 0
	for shed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("whale lane never filled to shedding")
		}
		_, err := srv.Do(context.Background(), Request{
			Session: "whales",
			Queries: queries[4+shed%4 : 5+shed%4],
			Deadline: 50 * time.Millisecond, // queued whales expire, keeping the queue refillable
		})
		var oe *OverloadError
		if errors.As(err, &oe) {
			if oe.Lane != LaneWhale {
				t.Fatalf("shed on %s lane, want whale", oe.Lane)
			}
			shed++
		} else if err != nil {
			var ee *ExpiredError
			if !errors.As(err, &ee) {
				t.Fatalf("unexpected refusal filling whale lane: %v", err)
			}
		}
	}

	// With the whale lane wedged and shedding, cheap traffic must flow.
	for i := 0; i < 20; i++ {
		resp, err := srv.Do(context.Background(), Request{Session: "cheap", Queries: cheapQ})
		if err != nil {
			t.Fatalf("cheap request %d refused while whales wedged: %v", i, err)
		}
		if resp.Lane != LaneCheap {
			t.Fatalf("warm request ran in %s lane", resp.Lane)
		}
		for _, r := range resp.Results {
			if r.Err != nil {
				t.Fatalf("cheap query failed: %v", r.Err)
			}
		}
	}
	snap := srv.MetricsSnapshot()
	if lc := snap.Lanes[LaneCheap.String()]; lc.Shed != 0 || lc.Completed < 20 {
		t.Errorf("cheap lane shed=%d completed=%d, want 0 shed / >=20 completed", lc.Shed, lc.Completed)
	}
	close(gate)
	if err := <-wedged; err != nil {
		t.Fatalf("wedged whale request: %v", err)
	}
}

// TestQuotaTokenBucket: per-tenant admission control under a fake clock.
func TestQuotaTokenBucket(t *testing.T) {
	ev := testEvolve(t, 1)
	srv := newTestServer(t, ev, Config{Quota: QuotaConfig{Rate: 1, Burst: 2}})
	now := time.Unix(1000, 0)
	srv.now = func() time.Time { return now }
	if _, err := srv.CreateSession("a", "tenant-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateSession("b", "tenant-b"); err != nil {
		t.Fatal(err)
	}
	do := func(sess string) error {
		_, err := srv.Do(context.Background(), Request{Session: sess})
		return err
	}
	for i := 0; i < 2; i++ {
		if err := do("a"); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	err := do("a")
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-burst request: err = %v, want *QuotaError", err)
	}
	if qe.Tenant != "tenant-a" || qe.RetryAfter <= 0 {
		t.Errorf("QuotaError = %+v, want tenant-a with positive RetryAfter", qe)
	}
	// Another tenant is unaffected.
	if err := do("b"); err != nil {
		t.Fatalf("tenant-b blocked by tenant-a's quota: %v", err)
	}
	// One refill interval restores one token.
	now = now.Add(time.Second)
	if err := do("a"); err != nil {
		t.Fatalf("post-refill request: %v", err)
	}
	if err := do("a"); !errors.As(err, &qe) {
		t.Fatalf("second post-refill request: err = %v, want *QuotaError", err)
	}
	if got := srv.MetricsSnapshot().Tenants["tenant-a"]; got.QuotaRejected != 2 {
		t.Errorf("tenant-a QuotaRejected = %d, want 2", got.QuotaRejected)
	}
}

// TestWatchdogCancelsAtDeadline wedges a request mid-traversal past its
// deadline: the watchdog must cancel it (cause context.DeadlineExceeded,
// visible through the engine's typed cancellation), count it, and leave
// the request completed rather than stuck.
func TestWatchdogCancelsAtDeadline(t *testing.T) {
	ev := testEvolve(t, 1)
	srv := newTestServer(t, ev, Config{WatchdogInterval: time.Millisecond})
	sess, err := srv.CreateSession("s1", "t")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var once sync.Once
	sess.Engine().Tracer = func(core.TraceEvent) { once.Do(func() { <-gate }) }

	// A multi-query batch: the first query wedges on its first trace
	// event; once the watchdog cancels, the batch's remaining slots are
	// drained with the typed cancellation even if the wedged query itself
	// finishes between budget polls.
	q := queryVars(ev, 0)
	if len(q) > 12 {
		q = q[:12]
	}
	done := make(chan struct{})
	var resp *Response
	var doErr error
	go func() {
		defer close(done)
		resp, doErr = srv.Do(context.Background(), Request{Session: "s1", Queries: q, Deadline: 5 * time.Millisecond})
	}()
	// Wait for the watchdog to cancel the wedged request.
	deadline := time.Now().Add(5 * time.Second)
	for srv.MetricsSnapshot().Lanes[LaneWhale.String()].DeadlineCancels == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never canceled the overdue request")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-done
	if doErr != nil {
		t.Fatalf("Do: %v", doErr)
	}
	canceled := 0
	for _, r := range resp.Results {
		if r.Err == nil {
			continue
		}
		if !errors.Is(r.Err, core.ErrCanceled) || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("overdue query error = %v, want ErrCanceled wrapping DeadlineExceeded", r.Err)
		}
		if !r.Partial {
			t.Error("deadline-canceled query not marked partial")
		}
		canceled++
	}
	if canceled == 0 {
		t.Fatal("no query in the overdue batch carries the typed cancellation")
	}
}

// TestQueuedRequestExpiresTyped: a request whose deadline passes while
// it waits behind a wedged worker is refused with *ExpiredError at
// pickup, never run.
func TestQueuedRequestExpiresTyped(t *testing.T) {
	ev := testEvolve(t, 1)
	srv := newTestServer(t, ev, Config{Workers: 1})
	sess, err := srv.CreateSession("s1", "t")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	wedgedIn := make(chan struct{})
	var once sync.Once
	sess.Engine().Tracer = func(core.TraceEvent) {
		once.Do(func() {
			close(wedgedIn)
			<-gate
		})
	}
	queries := queryVars(ev, 0)

	wedged := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), Request{Session: "s1", Queries: queries[:1]})
		wedged <- err
	}()
	// Wait until the wedge request holds the worker mid-traversal, then
	// queue one with a deadline that will pass while it waits. (Waiting on
	// admission alone would let the short-deadline request race the wedge
	// for the worker and wedge itself instead.)
	<-wedgedIn
	expCh := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), Request{Session: "s1", Queries: queries[1:2], Deadline: 5 * time.Millisecond})
		expCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if err := <-wedged; err != nil {
		t.Fatalf("wedged request: %v", err)
	}
	err = <-expCh
	var ee *ExpiredError
	if !errors.As(err, &ee) {
		t.Fatalf("stale queued request: err = %v, want *ExpiredError", err)
	}
	if ee.Lane != LaneWhale || ee.Waited <= 0 {
		t.Errorf("ExpiredError = %+v, want whale lane with positive wait", ee)
	}
	if got := srv.MetricsSnapshot().Lanes[LaneWhale.String()].Expired; got != 1 {
		t.Errorf("whale lane Expired = %d, want 1", got)
	}
}

// TestDrainPersistsAndRecovers: drain persists every dirty session as a
// replayable store; reopening through persist.Open yields engines whose
// answers are byte-identical to the drained sessions'. Clean sessions
// are skipped, post-drain admission is a typed refusal, and the whole
// lifecycle leaks no goroutines.
func TestDrainPersistsAndRecovers(t *testing.T) {
	base := runtime.NumGoroutine()
	ev := testEvolve(t, 3)
	stateDir := t.TempDir()
	srv := newTestServer(t, ev, Config{StateDir: stateDir})

	clean, err := srv.CreateSession("clean", "t")
	if err != nil {
		t.Fatal(err)
	}
	dirtySessions := []*Session{}
	for i, waves := range []int{1, 2} {
		sess, err := srv.CreateSession(fmt.Sprintf("dirty-%d", i), "t")
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= waves; k++ {
			applyWave(t, srv, sess, ev, k)
		}
		// Serve some traffic so the drained state is a lived-in engine,
		// not a fresh one.
		if _, err := srv.Do(context.Background(), Request{Session: sess.ID, Queries: queryVars(ev, waves)[:4]}); err != nil {
			t.Fatal(err)
		}
		dirtySessions = append(dirtySessions, sess)
	}
	if _, err := srv.Do(context.Background(), Request{Session: "clean", Queries: queryVars(ev, 0)[:2]}); err != nil {
		t.Fatal(err)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if srv.Ready() {
		t.Error("server still ready after drain")
	}
	if _, err := srv.Do(context.Background(), Request{Session: "clean"}); err == nil {
		t.Fatal("post-drain admission succeeded")
	} else {
		var oe *OverloadError
		if !errors.As(err, &oe) || !oe.Draining {
			t.Fatalf("post-drain refusal = %v, want draining *OverloadError", err)
		}
	}
	_ = clean
	if _, err := persist.Open(stateDir+"/clean", persist.Options{Config: testEngineCfg}); err == nil {
		t.Error("clean session was persisted; want skipped")
	}

	for _, sess := range dirtySessions {
		st, err := persist.Open(stateDir+"/"+sess.ID, persist.Options{Config: testEngineCfg, Ctxs: srv.Ctxs()})
		if err != nil {
			t.Fatalf("reopen %s: %v", sess.ID, err)
		}
		if err := st.Engine().CheckIntegrity(); err != nil {
			t.Fatalf("recovered %s: %v", sess.ID, err)
		}
		for _, q := range queryVars(ev, int(sess.Epoch())) {
			want, err := queryIn(nil, sess.Engine(), q.Var, q.Ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := queryIn(nil, st.Engine(), q.Var, q.Ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s var %d: recovered answer diverges from drained session", sess.ID, q.Var)
			}
		}
		st.Close()
	}
	goroutineStable(t, base)
}

// TestDrainDeadlineAbortsCooperatively: when the drain deadline passes,
// in-flight work is canceled (typed, cause-tagged), still-queued work is
// refused with a draining *OverloadError, and Drain returns with every
// accepted request completed and no goroutine leaks.
func TestDrainDeadlineAbortsCooperatively(t *testing.T) {
	base := runtime.NumGoroutine()
	ev := testEvolve(t, 1)
	srv := newTestServer(t, ev, Config{Workers: 1, QueueDepth: 4})
	sess, err := srv.CreateSession("s1", "t")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	wedgedIn := make(chan struct{})
	var once sync.Once
	sess.Engine().Tracer = func(core.TraceEvent) {
		once.Do(func() {
			close(wedgedIn)
			<-gate
		})
	}
	queries := queryVars(ev, 0)

	results := make(chan error, 3)
	issue := func(qs []core.Query) {
		resp, err := srv.Do(context.Background(), Request{Session: "s1", Queries: qs})
		if err == nil {
			for _, r := range resp.Results {
				if r.Err != nil {
					err = r.Err
					break
				}
			}
		}
		results <- err
	}
	// The wedge is a multi-query batch: after the drain deadline cancels
	// it, the batch's later slots observe the canceled context at entry
	// even if the wedged query itself finishes between budget polls.
	go issue(queries[0:6])
	<-wedgedIn // the wedge owns the worker before anything else queues
	go issue(queries[6:7]) // sits in the queue
	go issue(queries[7:8]) // sits in the queue

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()
	time.Sleep(80 * time.Millisecond) // let the drain deadline fire
	close(gate)
	if err := <-drainDone; err != nil {
		t.Fatalf("aborted drain: %v", err)
	}

	var canceled, refused, completed int
	for i := 0; i < 3; i++ {
		err := <-results
		var oe *OverloadError
		switch {
		case err == nil:
			completed++
		case errors.Is(err, core.ErrCanceled) && errors.Is(err, context.DeadlineExceeded):
			canceled++
		case errors.As(err, &oe) && oe.Draining:
			refused++
		default:
			t.Fatalf("untyped outcome under aborted drain: %v", err)
		}
	}
	if canceled == 0 {
		t.Errorf("no in-flight request was cancel-tagged (canceled=%d refused=%d completed=%d)", canceled, refused, completed)
	}
	if refused == 0 {
		t.Errorf("no queued request was refused while draining (canceled=%d refused=%d completed=%d)", canceled, refused, completed)
	}
	goroutineStable(t, base)
}

// TestServeLifecycleNoGoroutineLeaks is the full-lifecycle leak gate:
// start, mixed traffic with overload, drain — back to the baseline
// goroutine count. Run under -race in CI's servecheck.
func TestServeLifecycleNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	ev := testEvolve(t, 2)
	srv := newTestServer(t, ev, Config{Workers: 2, QueueDepth: 2})
	sess, err := srv.CreateSession("s1", "t")
	if err != nil {
		t.Fatal(err)
	}
	applyWave(t, srv, sess, ev, 1)
	queries := queryVars(ev, 1)
	var wg sync.WaitGroup
	for c := 0; c < 30; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			srv.Do(context.Background(), Request{
				Session:  "s1",
				Queries:  queries[c%len(queries) : c%len(queries)+1],
				Deadline: 100 * time.Millisecond,
			})
		}(c)
	}
	wg.Wait()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	goroutineStable(t, base)
}

// TestSessionRegistry covers the registry's typed refusals.
func TestSessionRegistry(t *testing.T) {
	ev := testEvolve(t, 1)
	srv := newTestServer(t, ev, Config{})
	if _, err := srv.CreateSession("dup", "t"); err != nil {
		t.Fatal(err)
	}
	_, err := srv.CreateSession("dup", "t")
	var de *DuplicateSessionError
	if !errors.As(err, &de) {
		t.Fatalf("duplicate create: err = %v, want *DuplicateSessionError", err)
	}
	_, err = srv.Do(context.Background(), Request{Session: "ghost"})
	var ue *UnknownSessionError
	if !errors.As(err, &ue) || ue.ID != "ghost" {
		t.Fatalf("unknown session: err = %v, want *UnknownSessionError{ghost}", err)
	}
}

// queryIn answers one query on d into a fresh set (the allocating form of
// DynSum.Query).
func queryIn(ctx context.Context, d *core.DynSum, v pag.NodeID, cc intstack.ID) (*core.PointsToSet, error) {
	pts := core.NewPointsToSet()
	err := d.Query(ctx, pts, v, cc)
	return pts, err
}
