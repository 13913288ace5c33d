package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The open-loop generator sends operations at their scheduled (due)
// times over a fixed set of connections, as independent users would. An
// operation due while every connection is busy waits in the generator,
// and its latency still counts from its due time, so a stall is charged
// to every request it delays. Two things are recorded about the
// generator itself: how late it sent operations that had an idle
// connection waiting (its own scheduling error, which makes a run
// invalid when large), and the backlog of due-but-unsent operations
// (the system falling behind, which ends the rate ladder).

// op is one scheduled operation.
type op struct {
	due     time.Duration // offset from the phase start
	session int
	draws   []float64 // seeded uniform draws that pick the query's sites
}

// opRecord is what the generator keeps about one sent operation.
type opRecord struct {
	sent    bool
	late    time.Duration // send - due, when a connection was idle at due
	idle    bool          // a connection was idle when the op fell due
	start   time.Time     // when it was sent
	end     time.Time     // when its reply arrived
	latency time.Duration // end - due
	failed  bool
	cheap   bool
	queued  time.Duration // dynsumd's queued_ns
	ran     time.Duration // dynsumd's ran_ns
	traced  bool          // spans were recorded for it
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	recs       []opRecord
	backlogMax int
	aborted    bool // the generator fell so far behind that the phase stopped
}

// join appends phase q to p, as one phase.
func (p *phaseResult) join(q *phaseResult) {
	p.recs = append(p.recs, q.recs...)
	p.backlogMax = max(p.backlogMax, q.backlogMax)
	p.aborted = p.aborted || q.aborted
}

// runPhase runs ops (sorted by due) over conns connections, one
// goroutine each. do performs one operation on the given connection's
// goroutine and fills its record. The phase stops claiming operations
// once one is claimed more than abortLag after its due time.
func runPhase(ctx context.Context, ops []op, conns int, abortLag time.Duration, do func(ctx context.Context, conn int, o *op, r *opRecord)) *phaseResult {
	res := &phaseResult{recs: make([]opRecord, len(ops))}
	var (
		next    atomic.Int64
		aborted atomic.Bool
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	start := time.Now().Add(time.Millisecond)
	dueBy := func(now time.Time) int { // ops due at or before now
		off := now.Sub(start)
		return sort.Search(len(ops), func(i int) bool { return ops[i].due > off })
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lockPreciseThread()
			defer runtime.UnlockOSThread()
			for !aborted.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o, r := &ops[i], &res.recs[i]
				due := start.Add(o.due)
				now := time.Now()
				if wait := due.Sub(now); wait > 0 {
					preciseSleep(wait)
					now = time.Now()
					r.idle, r.late = true, now.Sub(due)
				} else {
					if backlog := dueBy(now) - i; backlog > 0 {
						mu.Lock()
						res.backlogMax = max(res.backlogMax, backlog)
						mu.Unlock()
					}
					if now.Sub(due) > abortLag {
						aborted.Store(true)
						return
					}
				}
				r.sent, r.start = true, now
				do(ctx, c, o, r)
				r.end = time.Now()
				r.latency = r.end.Sub(due)
			}
		}(c)
	}
	wg.Wait()
	res.aborted = aborted.Load()
	return res
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// lockPreciseThread wires the calling goroutine to its OS thread and sets
// the thread's timer slack to 1ns. Go's timers wake at millisecond
// granularity when the process is otherwise idle, which would make the
// generator up to a millisecond late; nanosleep on a zero-slack thread
// wakes within microseconds.
func lockPreciseThread() {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// preciseSleep sleeps for d on the calling thread (see lockPreciseThread).
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// fixedRate schedules n query operations at rate per second, each with
// its session and draws from next.
func fixedRate(rate float64, dur time.Duration, next func() (session int, draws []float64)) []op {
	n := int(rate * dur.Seconds())
	ops := make([]op, n)
	for i := range ops {
		s, d := next()
		ops[i] = op{due: time.Duration(float64(i) / rate * float64(time.Second)), session: s, draws: d}
	}
	return ops
}

// phaseStats summarises the query operations of a phase.
type phaseStats struct {
	sent, failed   int
	latMS          []float64 // latency from due time, ms
	lateUS         []float64 // generator lateness with an idle connection, µs
	p50, p98       float64
	p99, pct       float64 // p99, or the highest percentile with ten samples beyond it
	latePct99      float64
	queueUS, runUS [2][]float64 // by lane: 0 cheap, 1 whale
	overheadUS     []float64
	cheap          int
}

func summarise(res *phaseResult) *phaseStats {
	st := &phaseStats{}
	for i := range res.recs {
		r := &res.recs[i]
		if !r.sent {
			continue
		}
		if r.idle {
			st.lateUS = append(st.lateUS, float64(r.late)/1e3)
		}
		st.sent++
		if r.failed {
			st.failed++
			continue
		}
		st.latMS = append(st.latMS, float64(r.latency)/1e6)
		lane := 1
		if r.cheap {
			lane = 0
			st.cheap++
		}
		st.queueUS[lane] = append(st.queueUS[lane], float64(r.queued)/1e3)
		st.runUS[lane] = append(st.runUS[lane], float64(r.ran)/1e3)
		st.overheadUS = append(st.overheadUS, float64(r.end.Sub(r.start)-r.queued-r.ran)/1e3)
	}
	st.p50 = median(st.latMS)
	st.p98 = quantile(st.latMS, 0.98)
	st.p99, st.pct = tailQuantile(st.latMS)
	st.latePct99, _ = tailQuantile(st.lateUS)
	return st
}
