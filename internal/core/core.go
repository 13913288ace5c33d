// Package core provides the shared kernel of every demand-driven points-to
// engine in this repository — budgets, points-to sets, configuration, the
// Analysis interface, work metrics — together with the reference
// implementation of the paper's contribution: the DYNSUM engine
// (Algorithms 3 and 4), i.e. context-sensitive demand-driven points-to
// analysis with dynamic PPTA summaries.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"dynsum/internal/delta"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// ErrBudget is reported when a query exceeds its traversal budget. The
// paper (§5.2) uses a budget of 75,000 PAG edge traversals per query;
// clients must answer conservatively when they see this error.
var ErrBudget = errors.New("points-to query budget exceeded")

// ErrDepth is reported when a query exceeds the field- or context-stack
// depth cap. The paper's implementation bounds this by collapsing
// recursion cycles in the call graph; we bound the stacks directly and
// treat overflow exactly like budget exhaustion (conservative answer).
var ErrDepth = errors.New("points-to query stack depth exceeded")

// DefaultBudget is the paper's per-query traversal budget (§5.2).
const DefaultBudget = 75000

// Config carries the tunables shared by all engines. The zero value is
// usable: WithDefaults substitutes the paper's settings.
type Config struct {
	// Budget is the maximum number of PAG edge traversals per query.
	Budget int
	// MaxFieldDepth caps the field stack (pending unmatched loads).
	MaxFieldDepth int
	// MaxCtxDepth caps the context stack (pending unmatched call edges).
	MaxCtxDepth int

	// WriteBackDepth bounds which intermediate PPTA states the memoised
	// traversal writes back to the summary cache: a state is cached only
	// if its field stack is at most this deep. Deep-stack states are the
	// long tail of field-heavy workloads — numerous, rarely revisited, and
	// each pinning a result slice for the engine's lifetime — so bounding
	// the depth bounds cache memory without touching the common shallow
	// states where the reuse lives. The query's start state is always
	// cached regardless. 0 means the default (8); negative writes back
	// only start states (the pre-memoisation behaviour).
	WriteBackDepth int
	// MaxWriteBacks caps how many intermediate states one PPTA run may
	// write back (the start state is exempt), bounding the cache growth a
	// single giant cold traversal can cause. 0 means the default (4096);
	// negative writes back only start states.
	MaxWriteBacks int

	// CompactFraction is the delta-overlay size trigger for automatic
	// compaction: when an ApplyDelta leaves the overlay holding more than
	// this fraction of the base graph's edge records, the engine merges
	// the overlay into a fresh frozen graph (DynSum.Compact). 0 means the
	// default (delta.DefaultCompactFraction, 0.5); negative disables
	// auto-compaction (explicit Compact still works).
	CompactFraction float64

	// DisableCache turns off summary reuse (DYNSUM): every PPTA runs flat
	// and nothing is read from or written to the summary cache. The
	// cache-ablation benchmark uses it to isolate the value of dynamic
	// summaries.
	DisableCache bool
	// DisableCondense keeps DYNSUM on the base (per-node) adjacency even
	// though the graph carries an SCC-condensed overlay. The condensation
	// benchmarks and the condensed-vs-base equivalence sweeps use it to
	// run both modes on one graph. The mode is fixed for the engine's
	// lifetime: condensed summaries are keyed by representative and cannot
	// answer base-mode queries, nor the reverse.
	DisableCondense bool
}

// Write-back heuristic defaults: shallow field stacks cover the states
// batches actually revisit, and 4096 write-backs per query is far above
// any closure the synthetic suite produces while still bounding a
// pathological traversal.
const (
	DefaultWriteBackDepth = 8
	DefaultMaxWriteBacks  = 4096
)

// WithDefaults returns c with zero fields replaced by the defaults
// (budget 75,000; both depth caps 64; write-back depth 8, cap 4096).
func (c Config) WithDefaults() Config {
	if c.Budget == 0 {
		c.Budget = DefaultBudget
	}
	if c.MaxFieldDepth == 0 {
		c.MaxFieldDepth = 64
	}
	if c.MaxCtxDepth == 0 {
		c.MaxCtxDepth = 64
	}
	if c.WriteBackDepth == 0 {
		c.WriteBackDepth = DefaultWriteBackDepth
	}
	if c.MaxWriteBacks == 0 {
		c.MaxWriteBacks = DefaultMaxWriteBacks
	}
	if c.CompactFraction == 0 {
		c.CompactFraction = delta.DefaultCompactFraction
	}
	return c
}

// Budget counts PAG edge traversals for one query. A budget may also
// carry the query's context (see arm): Step then polls for cancellation
// every cancelCheckInterval steps, so the same per-edge check that
// enforces the paper's traversal cap also enforces deadlines, at an
// amortised cost of one branch per step — the 0-alloc warm path is
// untouched.
type Budget struct {
	Limit int
	Steps int

	// Cancellation plumbing, set by arm for context-governed queries and
	// zero otherwise. done caches ctx.Done() so the poll is one channel
	// select; cause records the wrapped cancellation error the moment a
	// poll observes it (Err reports it); next is the step count at which
	// the next poll is due.
	ctx   context.Context
	done  <-chan struct{}
	cause error
	next  int
}

// cancelCheckInterval is how many budget steps pass between cancellation
// polls. One channel select per 256 edge traversals is noise against the
// traversal itself, yet bounds cancellation latency to a fraction of a
// millisecond of work — "prompt" on the scale of the 75,000-step default
// budget.
const cancelCheckInterval = 256

// NewBudget returns a budget of limit steps.
func NewBudget(limit int) *Budget { return &Budget{Limit: limit} }

// arm attaches ctx to the budget so Step cooperatively observes its
// cancellation. A nil context, or one that can never be canceled
// (context.Background), leaves the budget in pure step-counting mode.
func (b *Budget) arm(ctx context.Context) {
	b.ctx, b.done, b.cause, b.next = nil, nil, nil, 0
	if ctx == nil {
		return
	}
	if done := ctx.Done(); done != nil {
		b.ctx = ctx
		b.done = done
		b.next = b.Steps + cancelCheckInterval
	}
}

// Step consumes one traversal step; it reports false once the limit is
// exhausted or — for context-governed queries — once a poll observes the
// context is done. After a false, Err names which of the two it was.
func (b *Budget) Step() bool {
	b.Steps++
	if b.Steps > b.Limit {
		return false
	}
	if b.done != nil && b.Steps >= b.next {
		b.next = b.Steps + cancelCheckInterval
		select {
		case <-b.done:
			b.cause = wrapCanceled(b.ctx)
			return false
		default:
		}
	}
	return true
}

// Err returns the error a refused Step stands for: the wrapped
// cancellation cause when the governing context ended the query,
// ErrBudget otherwise. Meaningful only after Step returned false.
func (b *Budget) Err() error {
	if b.cause != nil {
		return b.cause
	}
	return ErrBudget
}

// Remaining returns the number of steps left.
func (b *Budget) Remaining() int {
	if r := b.Limit - b.Steps; r > 0 {
		return r
	}
	return 0
}

// State is the direction state of the points-to/alias recursive state
// machine of paper Figure 3(a): S1 traverses a flowsTo-bar path (from the
// queried variable backwards towards objects); S2 traverses a flowsTo path
// (forwards from an object towards variables).
type State uint8

const (
	// S1 is the flowsTo-bar (pointsTo) direction.
	S1 State = iota
	// S2 is the flowsTo direction.
	S2
)

func (s State) String() string {
	if s == S1 {
		return "S1"
	}
	return "S2"
}

// Analysis is the interface all four engines (DYNSUM, REFINEPTS, NOREFINE,
// STASUM) implement. PointsTo computes the points-to set of v under the
// empty initial context. A nil error means the set is exact (for the
// engine's precision class); ErrBudget/ErrDepth mean the query was
// abandoned and the set is partial.
type Analysis interface {
	Name() string
	PointsTo(v pag.NodeID) (*PointsToSet, error)
	Metrics() *Metrics
}

// Refinable is implemented by engines with an iterative refinement loop
// (REFINEPTS, paper Algorithm 2): satisfied is consulted after each
// refinement pass and stops the loop early.
type Refinable interface {
	Analysis
	PointsToSatisfying(v pag.NodeID, satisfied func(*PointsToSet) bool) (*PointsToSet, bool, error)
}

// Metrics aggregates work counters across queries. Counters, unlike wall
// time, are machine-independent, so tests and EXPERIMENTS.md use them to
// state reproducible claims.
//
// The concurrent kernel (DynSum and the shared driver/PPTA) updates these
// fields with atomic adds, so one Metrics may be written by many query
// goroutines at once; read a live engine's counters through Snapshot.
// Plain field reads remain fine once the engine has quiesced, and the
// serial engines (REFINEPTS, NOREFINE, STASUM's offline pass) may keep
// incrementing them directly.
type Metrics struct {
	Queries        int64 // PointsTo calls
	Failed         int64 // queries aborted (ErrBudget/ErrDepth/ErrCanceled/panic)
	EdgesTraversed int64 // total PAG edge traversals
	TuplesVisited  int64 // driver worklist tuples processed (DYNSUM/STASUM)
	PPTAVisits     int64 // states visited inside PPTA computations
	CacheHits      int64 // summary cache hits (DYNSUM) / memo hits (REFINEPTS)
	CacheMisses    int64 // summary cache misses
	Summaries      int64 // summaries computed (DYNSUM PPTA runs / STASUM total)
	RefineIters    int64 // refinement-loop iterations (REFINEPTS)
	MatchEdges     int64 // match-edge shortcuts taken (REFINEPTS)

	// SplicedSummaries counts cached sub-summaries merged directly into an
	// in-flight PPTA traversal instead of being re-expanded (DYNSUM's
	// memoised closure, splice-in half).
	SplicedSummaries int64
	// WrittenBackSummaries counts the fresh cache entries completed PPTA
	// traversals inserted (write-back half): every member state of every
	// completed component that passed the heuristic, the traversal's own
	// start state included — so each cold run contributes at least one.
	WrittenBackSummaries int64
	// BlendedSummaries counts Summarize calls answered by the open-world
	// blended/pessimistic model (openworld.go) — the "blended-summary
	// sites" figure pagstat -openworld reports. Zero on closed-world
	// engines.
	BlendedSummaries int64
}

// Snapshot returns an atomically-read copy of m, safe to take while
// queries are in flight on the owning engine. Call it only on an
// engine's own Metrics (as returned by Analysis.Metrics): engines place
// the struct first in their layout so the 64-bit atomic loads are
// aligned on 32-bit platforms; an arbitrary by-value copy carries no
// such guarantee — and needs no snapshot, being already detached.
func (m *Metrics) Snapshot() Metrics {
	return Metrics{
		Queries:        atomic.LoadInt64(&m.Queries),
		Failed:         atomic.LoadInt64(&m.Failed),
		EdgesTraversed: atomic.LoadInt64(&m.EdgesTraversed),
		TuplesVisited:  atomic.LoadInt64(&m.TuplesVisited),
		PPTAVisits:     atomic.LoadInt64(&m.PPTAVisits),
		CacheHits:      atomic.LoadInt64(&m.CacheHits),
		CacheMisses:    atomic.LoadInt64(&m.CacheMisses),
		Summaries:      atomic.LoadInt64(&m.Summaries),
		RefineIters:    atomic.LoadInt64(&m.RefineIters),
		MatchEdges:     atomic.LoadInt64(&m.MatchEdges),

		SplicedSummaries:     atomic.LoadInt64(&m.SplicedSummaries),
		WrittenBackSummaries: atomic.LoadInt64(&m.WrittenBackSummaries),
		BlendedSummaries:     atomic.LoadInt64(&m.BlendedSummaries),
	}
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Queries += other.Queries
	m.Failed += other.Failed
	m.EdgesTraversed += other.EdgesTraversed
	m.TuplesVisited += other.TuplesVisited
	m.PPTAVisits += other.PPTAVisits
	m.CacheHits += other.CacheHits
	m.CacheMisses += other.CacheMisses
	m.Summaries += other.Summaries
	m.RefineIters += other.RefineIters
	m.MatchEdges += other.MatchEdges
	m.SplicedSummaries += other.SplicedSummaries
	m.WrittenBackSummaries += other.WrittenBackSummaries
	m.BlendedSummaries += other.BlendedSummaries
}

// String uses plain reads so it is safe on by-value copies regardless of
// alignment; render a live concurrent engine via Metrics().Snapshot()
// first.
func (m *Metrics) String() string {
	return fmt.Sprintf("queries=%d failed=%d edges=%d tuples=%d ppta=%d hits=%d misses=%d summaries=%d refines=%d matches=%d spliced=%d writtenback=%d",
		m.Queries, m.Failed, m.EdgesTraversed, m.TuplesVisited, m.PPTAVisits,
		m.CacheHits, m.CacheMisses, m.Summaries, m.RefineIters, m.MatchEdges,
		m.SplicedSummaries, m.WrittenBackSummaries)
}

// HeapCtx is a context-sensitive abstract object: an allocation site
// distinguished by the context stack under which it was discovered (the
// paper's heap-abstraction axis of context sensitivity, §1).
type HeapCtx struct {
	Obj pag.NodeID
	Ctx intstack.ID
}
