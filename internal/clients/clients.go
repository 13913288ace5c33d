// Package clients implements the paper's three demand clients (§5.2):
//
//   - SafeCast checks that every downcast (T)v is safe: all objects v may
//     point to are subtypes of T.
//   - NullDeref checks that dereferenced variables cannot be null,
//     demanding high precision (the client the paper says benefits most
//     from DYNSUM).
//   - FactoryM checks that a factory method returns a freshly allocated
//     object: everything its return variable points to is allocated in the
//     factory or its transitive callees, and never null.
//
// Each client walks its site list, issues one points-to query per site,
// and classifies the site as Proven (the property holds), Violation (a
// counterexample object was found by a fully precise answer), or Unknown
// (budget or depth exhausted: conservative).
//
// Clients drive REFINEPTS's refinement loop through core.Refinable: the
// satisfaction predicate is exactly the property, so the engine can stop
// refining as soon as an over-approximation already proves it — the early
// termination the paper credits for REFINEPTS's good SafeCast results.
//
// Engines implementing BatchAnalysis (DYNSUM) can answer a client's whole
// site list through a worker pool instead: RunParallel fans the queries
// out across goroutines sharing one summary cache and classifies the
// results in site order, producing the same Report as the serial path.
package clients

import (
	"context"
	"fmt"
	"strings"

	"dynsum/internal/core"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// Verdict classifies one client site.
type Verdict uint8

const (
	// Proven means the property was established.
	Proven Verdict = iota
	// Violation means a counterexample object was found.
	Violation
	// Unknown means the query exceeded its budget; clients must assume
	// the worst.
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Proven:
		return "proven"
	case Violation:
		return "violation"
	}
	return "unknown"
}

// SiteResult is the outcome for one query site.
type SiteResult struct {
	Site    string
	Verdict Verdict
	Objects int // |pts| of the queried variable (0 for Unknown)
}

// Report aggregates a client run.
type Report struct {
	Client     string
	Analysis   string
	Queries    int
	Proven     int
	Violations int
	Unknown    int
	Results    []SiteResult
}

func (r *Report) add(site string, v Verdict, objects int) {
	r.Queries++
	switch v {
	case Proven:
		r.Proven++
	case Violation:
		r.Violations++
	default:
		r.Unknown++
	}
	r.Results = append(r.Results, SiteResult{Site: site, Verdict: v, Objects: objects})
}

func (r *Report) String() string {
	return fmt.Sprintf("%s/%s: %d queries, %d proven, %d violations, %d unknown",
		r.Client, r.Analysis, r.Queries, r.Proven, r.Violations, r.Unknown)
}

// Summary renders per-site detail for diagnostics.
func (r *Report) Summary() string {
	var b strings.Builder
	b.WriteString(r.String())
	b.WriteByte('\n')
	for _, s := range r.Results {
		fmt.Fprintf(&b, "  %-40s %-9s |pts|=%d\n", s.Site, s.Verdict, s.Objects)
	}
	return b.String()
}

// querySite is one client query site in canonical form: the variable to
// query and the property predicate over its points-to set. Every client is
// a site-list producer; the serial and batch execution paths below share
// the classification logic.
type querySite struct {
	name string
	v    pag.NodeID
	ok   func(*core.PointsToSet) bool
}

// safeCastSites lists the downcast sites of p: every object must be a
// subtype of the cast target (null casts to anything).
func safeCastSites(p *pag.Program) []querySite {
	g := p.G
	sites := make([]querySite, 0, len(p.Casts))
	for _, site := range p.Casts {
		target := site.Target
		sites = append(sites, querySite{
			name: site.Name,
			v:    site.Var,
			ok: func(pts *core.PointsToSet) bool {
				for _, o := range pts.Objects() {
					if g.IsNullObject(o) {
						continue // null is castable to anything
					}
					if !g.SubtypeOf(g.Node(o).Class, target) {
						return false
					}
				}
				return true
			},
		})
	}
	return sites
}

// nullDerefSites lists the dereference sites of p: the pointer must never
// be null.
func nullDerefSites(p *pag.Program) []querySite {
	g := p.G
	sites := make([]querySite, 0, len(p.Derefs))
	for _, site := range p.Derefs {
		sites = append(sites, querySite{
			name: site.Name,
			v:    site.Var,
			ok: func(pts *core.PointsToSet) bool {
				for _, o := range pts.Objects() {
					if g.IsNullObject(o) {
						return false
					}
				}
				return true
			},
		})
	}
	return sites
}

// factoryMSites lists the factory methods of p: the return variable must
// point only to objects allocated within the factory's transitive callee
// closure, and never to null.
func factoryMSites(p *pag.Program) []querySite {
	g := p.G
	sites := make([]querySite, 0, len(p.Factories))
	for _, site := range p.Factories {
		method := site.Method
		// The callee closure is a transitive call-graph walk; compute it
		// on first use so callers that only enumerate sites (Queries)
		// never pay for it. Predicates are invoked serially — once per
		// site by the classification loops, and from within a single
		// refinement loop for Refinable engines — so the lazy
		// initialisation needs no lock.
		var closure map[pag.MethodID]bool
		sites = append(sites, querySite{
			name: site.Name,
			v:    site.Ret,
			ok: func(pts *core.PointsToSet) bool {
				if closure == nil {
					closure = p.CalleeClosure(method)
				}
				for _, o := range pts.Objects() {
					if g.IsNullObject(o) {
						return false
					}
					if !closure[g.Node(o).Method] {
						return false
					}
				}
				return true
			},
		})
	}
	return sites
}

// sitesFor dispatches a client's site list by name.
func sitesFor(client string, p *pag.Program) ([]querySite, error) {
	switch client {
	case "SafeCast":
		return safeCastSites(p), nil
	case "NullDeref":
		return nullDerefSites(p), nil
	case "FactoryM":
		return factoryMSites(p), nil
	}
	return nil, fmt.Errorf("clients: unknown client %q", client)
}

// queriesOf converts a site list to its empty-context batch queries, in
// site order.
func queriesOf(sites []querySite) []core.Query {
	qs := make([]core.Query, len(sites))
	for i, s := range sites {
		qs[i] = core.Query{Var: s.v, Ctx: intstack.Empty}
	}
	return qs
}

// Queries returns the points-to queries client would issue on p, in site
// order — the batch workload handed to core.DynSum.BatchPointsTo by the
// parallel-speedup experiment and benchmarks.
func Queries(client string, p *pag.Program) ([]core.Query, error) {
	sites, err := sitesFor(client, p)
	if err != nil {
		return nil, err
	}
	return queriesOf(sites), nil
}

// query runs one points-to query, using the refinement loop when the
// engine supports it. satisfied must be monotone-friendly: true on a set
// implies the property holds for every subset.
func query(a core.Analysis, v pag.NodeID, satisfied func(*core.PointsToSet) bool) (Verdict, int) {
	if ref, ok := a.(core.Refinable); ok {
		pts, sat, err := ref.PointsToSatisfying(v, satisfied)
		if err != nil {
			return Unknown, 0
		}
		if sat || satisfied(pts) {
			return Proven, pts.Len()
		}
		return Violation, pts.Len()
	}
	pts, err := a.PointsTo(v)
	if err != nil {
		return Unknown, 0
	}
	if satisfied(pts) {
		return Proven, pts.Len()
	}
	return Violation, pts.Len()
}

// runSerial classifies every site with one query at a time.
func runSerial(client string, sites []querySite, a core.Analysis) *Report {
	rep := &Report{Client: client, Analysis: a.Name()}
	for _, s := range sites {
		v, n := query(a, s.v, s.ok)
		rep.add(s.name, v, n)
	}
	return rep
}

// classify turns one batch result into a verdict, mirroring the serial
// non-refinable path of query.
func classify(s querySite, r core.Result) (Verdict, int) {
	if r.Err != nil {
		return Unknown, 0
	}
	if s.ok(r.Pts) {
		return Proven, r.Pts.Len()
	}
	return Violation, r.Pts.Len()
}

// runBatch classifies every site from one BatchPointsTo fan-out.
func runBatch(client string, sites []querySite, a BatchAnalysis, workers int) *Report {
	results := a.BatchPointsTo(nil, queriesOf(sites), workers)
	rep := &Report{Client: client, Analysis: a.Name()}
	for i, s := range sites {
		v, n := classify(s, results[i])
		rep.add(s.name, v, n)
	}
	return rep
}

// SafeCast checks every downcast site of p with analysis a.
func SafeCast(p *pag.Program, a core.Analysis) *Report {
	return runSerial("SafeCast", safeCastSites(p), a)
}

// NullDeref checks every dereference site of p with analysis a.
func NullDeref(p *pag.Program, a core.Analysis) *Report {
	return runSerial("NullDeref", nullDerefSites(p), a)
}

// FactoryM checks every factory method of p with analysis a: the return
// variable must point only to objects allocated within the factory's
// transitive callee closure, and never to null.
func FactoryM(p *pag.Program, a core.Analysis) *Report {
	return runSerial("FactoryM", factoryMSites(p), a)
}

// Run dispatches a client by name ("SafeCast", "NullDeref", "FactoryM").
func Run(client string, p *pag.Program, a core.Analysis) (*Report, error) {
	sites, err := sitesFor(client, p)
	if err != nil {
		return nil, err
	}
	return runSerial(client, sites, a), nil
}

// BatchAnalysis is an Analysis whose queries may execute concurrently
// through a worker pool; core.DynSum implements it.
type BatchAnalysis interface {
	core.Analysis
	BatchPointsTo(ctx context.Context, queries []core.Query, workers int) []core.Result
}

// RunParallel is Run with the client's queries fanned out across workers
// goroutines when the engine supports batching (workers <= 0 selects
// GOMAXPROCS). Engines without BatchPointsTo, Refinable engines (whose
// serial path interleaves client predicates with refinement — batching
// would lose the early-termination precision), and single-worker runs
// all fall back to the serial path, so RunParallel is always safe to
// call. The Report lists sites in the same order as Run with identical
// verdicts for every site whose query completes; sites near the query
// budget boundary may flip between a definite verdict and Unknown
// relative to a serial run, because cache warming — and so budget
// consumption — is schedule-dependent (see core.DynSum.BatchPointsTo).
func RunParallel(client string, p *pag.Program, a core.Analysis, workers int) (*Report, error) {
	sites, err := sitesFor(client, p)
	if err != nil {
		return nil, err
	}
	ba, ok := a.(BatchAnalysis)
	_, refinable := a.(core.Refinable)
	if ok && !refinable && workers != 1 {
		return runBatch(client, sites, ba, workers), nil
	}
	return runSerial(client, sites, a), nil
}

// Names lists the three clients in paper order.
func Names() []string { return []string{"SafeCast", "NullDeref", "FactoryM"} }
