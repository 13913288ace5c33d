// Package dynsum reproduces "On-Demand Dynamic Summary-based Points-to
// Analysis" (Shang, Xie, Xue; CGO 2012) as a Go library: context-sensitive
// demand-driven points-to analysis over Pointer Assignment Graphs, with
// the paper's DYNSUM engine (dynamic PPTA summaries) plus the three
// comparison engines (NOREFINE, REFINEPTS, STASUM), the three evaluation
// clients (SafeCast, NullDeref, FactoryM), a MiniJava frontend, a
// calibrated synthetic benchmark generator, and the experiment harness
// that regenerates every table and figure of the paper's evaluation.
//
// This root package is a facade over the internal packages; see README.md
// for the architecture and DESIGN.md for the paper-to-module map.
//
// A minimal session:
//
//	prog, info, err := dynsum.CompileMiniJava("demo", src)
//	engine := dynsum.NewDynSum(prog.G, dynsum.Config{})
//	pts, err := engine.PointsTo(info.Var("Main.main.x"))
//	fmt.Println(pts.FormatObjects(prog.G))
//
// The DYNSUM engine is safe for concurrent queries; BatchPointsTo fans a
// query batch out over a worker pool sharing one summary cache:
//
//	results := dynsum.BatchPointsTo(ctx, engine, vars, 4)
//
// Engines read only frozen graphs: the frontend, the benchmark generator,
// the PAG decoder and Builder.Finish all freeze into an immutable CSR
// layout, and a program keeps evolving through DeltaLog/ApplyDelta. Every
// query enters through engine.Query(ctx, dst, v, cc) — PointsTo is its
// allocating shorthand — and a warm-cache Query reusing a caller-owned
// result set performs zero heap allocations.
package dynsum

import (
	"context"
	"io"

	"dynsum/internal/benchgen"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/intstack"
	"dynsum/internal/mj"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
	"dynsum/internal/refine"
	"dynsum/internal/stasum"
)

// Re-exported core types.
type (
	// Config carries engine tunables (budget, stack-depth caps).
	Config = core.Config
	// Analysis is the common engine interface.
	Analysis = core.Analysis
	// PointsToSet is a set of (object, heap-context) pairs.
	PointsToSet = core.PointsToSet
	// Metrics is the per-engine work counters.
	Metrics = core.Metrics
	// Program is a PAG plus client query-site metadata.
	Program = pag.Program
	// Graph is the Pointer Assignment Graph.
	Graph = pag.Graph
	// Builder constructs PAGs statement by statement.
	Builder = pag.Builder
	// NodeID identifies a PAG node (variable or abstract object).
	NodeID = pag.NodeID
	// Query is one batched points-to request (variable + calling context).
	Query = core.Query
	// Result is the outcome of one batched query.
	Result = core.Result
	// Report is a client run summary.
	Report = clients.Report
	// FrontendInfo exposes the MiniJava symbol tables.
	FrontendInfo = mj.Info
	// DeltaLog records method-granular program changes (added methods,
	// nodes, edges, redefinitions) for ApplyDelta.
	DeltaLog = delta.Log
	// DeltaResult reports what one applied epoch did: overlay statistics
	// plus the summaries invalidated and whether auto-compaction ran.
	DeltaResult = core.DeltaResult
	// RetryPolicy answers a query with escalating budgets: only ErrBudget
	// aborts are retried (ErrDepth is structural, cancellation is the
	// client's decision, panics mean the query is suspect). The zero value
	// gives three attempts at ×4 escalation from the engine's budget.
	RetryPolicy = core.RetryPolicy
	// QueryPanicError is the quarantined form of a panic raised inside one
	// points-to query: the query's scratch state was discarded instead of
	// pooled and its buffered write-backs were dropped, so the engine and
	// its summary cache are exactly as if the query never ran. It carries
	// the panicking variable, context, panic value and stack.
	QueryPanicError = core.QueryPanicError
	// MutatorPanicError is the quarantined form of a panic raised inside an
	// engine mutator (ApplyDelta before its commit point, Compact): the
	// mutation did not happen and the engine is fully usable on its
	// pre-call state. A panic past ApplyDelta's commit point is NOT
	// converted — a half-applied epoch propagates as the original panic.
	MutatorPanicError = core.MutatorPanicError
	// FrozenError is the panic value of a post-freeze graph mutation; it
	// wraps ErrFrozen and names the offending operation and target.
	FrozenError = pag.FrozenError
	// PersistentStore is a program plus engine backed by a durable on-disk snapshot
	// and delta journal (DESIGN.md §13): Append journals each epoch before
	// it is made queryable, Compact rotates snapshot and journal, and Open
	// recovers the exact durable epoch after a crash.
	PersistentStore = persist.Store
	// StoreOptions configures a persistent store: engine Config and
	// variants, the journal fsync policy, and an optional shared context
	// table for cross-engine answer comparison.
	StoreOptions = persist.Options
	// CorruptSnapshotError reports fatal snapshot damage: a checksum,
	// framing or range violation inside the snapshot file. The journal is
	// unaffected, but the store cannot open.
	CorruptSnapshotError = persist.CorruptSnapshotError
	// CorruptJournalError reports fatal mid-journal damage: a record that
	// is fully present but fails its CRC (or replays inconsistently). A
	// merely torn final record is NOT this error — it is truncated silently
	// and the store opens at the preceding epoch.
	CorruptJournalError = persist.CorruptJournalError

	// Identifier and edge types re-exported so DeltaLog entries can be
	// constructed against the facade alone.
	MethodID   = pag.MethodID
	ClassID    = pag.ClassID
	CallSiteID = pag.CallSiteID
	FieldID    = pag.FieldID
	NodeKind   = pag.NodeKind
	EdgeKind   = pag.EdgeKind
	Edge       = pag.Edge
	CallSite   = pag.CallSite
)

// Node-kind and edge-kind constants, re-exported for DeltaLog users.
const (
	Local  = pag.Local
	Global = pag.Global
	Object = pag.Object

	New          = pag.New
	Assign       = pag.Assign
	Load         = pag.Load
	Store        = pag.Store
	AssignGlobal = pag.AssignGlobal
	Entry        = pag.Entry
	Exit         = pag.Exit

	// NoLabel is the Label of unlabelled edge kinds.
	NoLabel = pag.NoLabel
)

// Sentinel "none" identifiers, re-exported for DeltaLog users.
const (
	NoNode     = pag.NoNode
	NoMethod   = pag.NoMethod
	NoClass    = pag.NoClass
	NoField    = pag.NoField
	NoCallSite = pag.NoCallSite
)

// Errors and defaults re-exported from the kernel. The taxonomy has two
// classes (DESIGN.md §12):
//
//   - Partial aborts (ErrBudget, ErrDepth, ErrCanceled; IsPartial returns
//     true): the traversal stopped cooperatively at a step boundary. The
//     points-to set accumulated so far is a sound under-approximation —
//     everything in it is a real may-point-to fact — and the client must
//     answer conservatively. The engine and cache are fully intact.
//   - Quarantined panics (*QueryPanicError, *MutatorPanicError): the
//     operation was interrupted mid-step; its partial state was discarded,
//     never pooled or committed, so the engine remains byte-identical to
//     the state before the call.
//
// Persistence failures follow the same two classes. Recoverable damage —
// a torn snapshot temp file, a torn final journal record, the signature of
// a crash mid-write — is absorbed silently: Open discards the torn bytes
// and recovers the last durable epoch. Fatal damage — a checksum or
// framing violation inside bytes a crash cannot produce — surfaces as a
// typed *CorruptSnapshotError or *CorruptJournalError (match with
// errors.As), or ErrSnapshotVersion for a format-version skew; the store
// refuses to open rather than replay corrupted state.
var (
	// ErrBudget is returned when a query exceeds its traversal budget.
	ErrBudget = core.ErrBudget
	// ErrDepth is returned when a query exceeds a stack-depth cap.
	ErrDepth = core.ErrDepth
	// ErrCanceled is matched (errors.Is) by the error of a query aborted
	// through its context; the error also matches context.Cause(ctx), so
	// context.DeadlineExceeded checks work too.
	ErrCanceled = core.ErrCanceled
	// ErrNotEvolved is returned by Compact on an engine with no overlay.
	ErrNotEvolved = core.ErrNotEvolved
	// ErrFrozen is the sentinel wrapped by every *FrozenError panic.
	ErrFrozen = pag.ErrFrozen
	// ErrSnapshotVersion is matched (errors.Is) by Open's error when the
	// snapshot was written by an incompatible format version.
	ErrSnapshotVersion = persist.ErrSnapshotVersion
)

// IsPartial reports whether err is a partial-abort error (ErrBudget,
// ErrDepth or ErrCanceled) — the class whose partially filled points-to
// set is still a sound under-approximation.
func IsPartial(err error) bool { return core.IsPartial(err) }

// DefaultBudget is the paper's 75,000-edge per-query budget.
const DefaultBudget = core.DefaultBudget

// NewBuilder returns a PAG builder over a fresh graph.
func NewBuilder() *Builder { return pag.NewBuilder() }

// NewPointsToSet returns an empty points-to set, for reuse across queries
// through the engine's allocation-free Query path.
func NewPointsToSet() *PointsToSet { return core.NewPointsToSet() }

// NewDynSum builds the paper's engine: demand-driven points-to analysis
// with dynamic, context-independent PPTA summaries (Algorithms 3 and 4).
// g must be frozen; all four engine constructors panic otherwise.
func NewDynSum(g *Graph, cfg Config) *core.DynSum { return core.NewDynSum(g, cfg, nil) }

// NewNoRefine builds the NOREFINE baseline: fully field-sensitive
// demand-driven analysis without refinement or caching.
func NewNoRefine(g *Graph, cfg Config) Analysis { return refine.NewNoRefine(g, cfg, nil) }

// NewRefinePts builds REFINEPTS (Sridharan–Bodík PLDI'06): match-edge
// refinement with client-driven early termination.
func NewRefinePts(g *Graph, cfg Config) *refine.Engine { return refine.NewRefinePts(g, cfg, nil) }

// NewStaSum builds STASUM (Yan et al. ISSTA'11 style): offline symbolic
// summaries for every method, reused at query time.
func NewStaSum(g *Graph, cfg Config) *stasum.Engine { return stasum.New(g, cfg, nil) }

// CompileMiniJava compiles MiniJava source to a Program (see internal/mj
// for the language); the returned info maps qualified names to PAG nodes.
func CompileMiniJava(name, src string) (*Program, *FrontendInfo, error) {
	return mj.Compile(name, src)
}

// LoadPAG reads a Program in the textual PAG format.
func LoadPAG(r io.Reader) (*Program, error) { return pag.Decode(r) }

// SavePAG writes a Program in the textual PAG format.
func SavePAG(w io.Writer, p *Program) error { return pag.Encode(w, p) }

// NewDeltaLog starts a change log positioned at the engine's current
// program, for the dynamic scenario the paper is named for: code arriving
// while the analysis is live (class loading, JIT recompilation, an IDE
// session). Fill the log with its AddMethod/AddNode/AddEdge/RedefineMethod
// methods and hand it to ApplyDelta.
func NewDeltaLog(engine *core.DynSum) (*DeltaLog, error) { return engine.NewDeltaLog() }

// ApplyDelta applies one epoch of recorded program changes to a quiesced
// engine: the frozen graph absorbs the change through a per-node overlay
// (no re-freeze), the SCC condensation is repaired locally, and only the
// summaries of the touched methods are invalidated — everything else stays
// warm. Once the overlay outgrows Config.CompactFraction of the base, the
// epoch finishes with an automatic Compact.
func ApplyDelta(engine *core.DynSum, log *DeltaLog) (DeltaResult, error) {
	return engine.ApplyDelta(log)
}

// Compact merges an evolved engine's overlay into a fresh frozen,
// re-condensed graph with identical IDs (and clears the summary cache,
// which the fresh condensation re-keys). ApplyDelta triggers this
// automatically past Config.CompactFraction; call it directly to force the
// merge at a quiet moment.
func Compact(engine *core.DynSum) error { return engine.Compact() }

// Save persists prog (which must be frozen) as a fresh store in dir — a
// durable epoch-0 snapshot plus an empty journal — and closes it. Use
// OpenStore to resume, or CreateStore to keep the store live for appends.
func Save(dir string, prog *Program) error {
	st, err := persist.Create(dir, prog, StoreOptions{})
	if err != nil {
		return err
	}
	return st.Close()
}

// CreateStore initialises a persistent store in dir from a frozen program
// and returns it live: Engine() serves queries, Append journals delta
// epochs durably before applying them, Compact rotates the snapshot.
func CreateStore(dir string, prog *Program, opts StoreOptions) (*PersistentStore, error) {
	return persist.Create(dir, prog, opts)
}

// OpenStore recovers the store in dir: the snapshot is loaded with every
// checksum verified, the journal is replayed epoch by epoch through the
// engine's delta machinery, and the result is validated structurally
// before the store is returned. A torn journal tail (crash mid-append) is
// truncated silently; real corruption fails with a typed error (see the
// error-taxonomy block above).
func OpenStore(dir string, opts StoreOptions) (*PersistentStore, error) {
	return persist.Open(dir, opts)
}

// BatchPointsTo answers a batch of whole-program points-to queries (empty
// initial context) on engine, fanned out across workers goroutines sharing
// the engine's summary cache. workers <= 0 selects GOMAXPROCS. Results are
// positionally aligned with vars; every query that completes returns the
// serial PointsTo answer, while conservative budget failures may differ
// from a serial run near the budget boundary (cache warming is
// schedule-dependent). ctx may be nil; once it is done, in-flight queries
// abort cooperatively with ErrCanceled and the remaining slots are filled
// without traversal, so the call returns promptly with no goroutine
// leaked. For per-query calling contexts, build []Query directly and call
// engine.BatchPointsTo.
func BatchPointsTo(ctx context.Context, engine *core.DynSum, vars []NodeID, workers int) []Result {
	queries := make([]Query, len(vars))
	for i, v := range vars {
		queries[i] = Query{Var: v, Ctx: intstack.Empty}
	}
	return engine.BatchPointsTo(ctx, queries, workers)
}

// RunClient runs one of the paper's clients ("SafeCast", "NullDeref",
// "FactoryM") over prog with engine a.
func RunClient(client string, prog *Program, a Analysis) (*Report, error) {
	return clients.Run(client, prog, a)
}

// RunClientParallel is RunClient with the client's query sites fanned out
// across workers goroutines when the engine supports batch execution
// (DYNSUM does); other engines fall back to the serial path.
func RunClientParallel(client string, prog *Program, a Analysis, workers int) (*Report, error) {
	return clients.RunParallel(client, prog, a, workers)
}

// Clients lists the three client names in paper order.
func Clients() []string { return clients.Names() }

// GenerateBenchmark builds one of the nine synthetic Table 3 benchmarks at
// the given scale (1.0 = paper-sized) and seed.
func GenerateBenchmark(name string, scale float64, seed int64) (*Program, error) {
	p, ok := benchgen.ProfileByName(name)
	if !ok {
		return nil, errUnknownBenchmark(name)
	}
	return benchgen.Generate(p.Scaled(scale), seed), nil
}

// BenchmarkNames lists the nine Table 3 benchmarks.
func BenchmarkNames() []string {
	out := make([]string, len(benchgen.Profiles))
	for i, p := range benchgen.Profiles {
		out[i] = p.Name
	}
	return out
}

type errUnknownBenchmark string

func (e errUnknownBenchmark) Error() string { return "dynsum: unknown benchmark " + string(e) }

// Open-world analysis (DESIGN.md §15): sound answers on programs with
// missing method bodies. Mark the missing methods bodyless on the builder
// (or use the MiniJava 'native' keyword), enable a policy on the engine,
// and optionally install a spec file describing the missing code's
// points-to effects.
type (
	// OpenWorldPolicy selects how the engine answers traversals that reach
	// a bodyless method: Blended (per-method blob summary), Pessimistic
	// (one global worst-case summary) or SpecOnly (fail with *NoSpecError).
	OpenWorldPolicy = core.OpenWorldPolicy
	// NoSpecError fails a PolicySpecOnly query that reached a bodyless
	// method without an installed spec; the partial set is NOT sound.
	NoSpecError = core.NoSpecError
	// SpecFile is a parsed library points-to spec (one flow per line; see
	// ParseSpecs).
	SpecFile = openworld.File
	// SpecParseError reports malformed spec text with its 1-based line.
	SpecParseError = openworld.ParseError
	// SpecResolveError reports a spec that does not fit the target graph
	// (unknown method, arity mismatch, method not marked bodyless, ...).
	SpecResolveError = openworld.ResolveError
	// ResolvedSpecs is a spec file lowered onto a graph: PAG edges plus the
	// methods they cover, ready for ApplySpecs.
	ResolvedSpecs = openworld.Resolved
	// BodylessInfo records the boundary interface (formals, return, blob
	// nodes) of one bodyless method.
	BodylessInfo = pag.BodylessInfo
)

// Open-world policy constants.
const (
	PolicyBlended     = core.PolicyBlended
	PolicyPessimistic = core.PolicyPessimistic
	PolicySpecOnly    = core.PolicySpecOnly
)

// ErrOpenWorldDisabled is returned by ApplySpecs before EnableOpenWorld.
var ErrOpenWorldDisabled = core.ErrOpenWorldDisabled

// ParseSpecs parses library points-to spec text. The format is one method
// block per paragraph:
//
//	method Vector.get
//	  ret <- this.Vector.elems
//
//	method Vector.add
//	  this.Vector.elems <- arg1
//
// Field names must match the graph's interned spelling (the MiniJava
// frontend qualifies them as Class.field), and arg0 is the receiver —
// the first explicit parameter is arg1. Malformed input yields a
// *SpecParseError; the parser never panics.
func ParseSpecs(text string) (*SpecFile, error) { return openworld.Parse(text) }

// ResolveSpecs lowers a parsed spec file onto g: every spec'd method must
// be marked bodyless, and each flow line becomes PAG edges over the
// method's recorded boundary interface. Hand the result to ApplySpecs.
func ResolveSpecs(g *Graph, f *SpecFile) (*ResolvedSpecs, error) { return openworld.Resolve(g, f) }

// EnableOpenWorld switches engine into open-world mode under policy:
// traversals that reach a bodyless method are answered soundly (or
// refused, under PolicySpecOnly) instead of silently dropping the missing
// code's effects.
func EnableOpenWorld(engine *core.DynSum, policy OpenWorldPolicy) {
	engine.EnableOpenWorld(policy)
}

// ApplySpecs installs resolved specs on an open-world engine through its
// delta machinery: the lowered edges arrive as one epoch and the exactly
// spec'd methods leave blended treatment. Queries keep exact answers for
// spec'd methods and blob-conservative ones for the rest.
func ApplySpecs(engine *core.DynSum, specs *ResolvedSpecs) (DeltaResult, error) {
	return engine.ApplySpecs(specs.Edges, specs.Exact)
}
