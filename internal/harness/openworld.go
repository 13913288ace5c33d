package harness

import (
	"fmt"
	"io"
	"testing"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/intstack"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
)

// This file runs the open-world evaluation (`experiments -openworld`): for
// each generated open-world workload the full-body oracle is compared
// against the stripped program answered under blended summaries and under
// derived specs. Three axes are reported per workload:
//
//   - soundness: the number of queries whose open-world answer failed to
//     cover the oracle (must be zero; an oracle object allocated inside a
//     deleted method counts as covered by that method's blob object);
//   - precision: the average answer size relative to the oracle — how much
//     the conservative blob model over-approximates, and how much of that
//     the specs win back;
//   - speed: wall-clock and the deterministic traversed-edge counter for
//     the full query sweep.

// OpenWorldCell is one (workload, mode) measurement.
type OpenWorldCell struct {
	Queries    int           // answered queries
	Skipped    int           // conservative failures (budget/depth)
	Unsound    int           // answered queries that dropped an oracle object
	AvgObjects float64       // mean objects per answered query
	Time       time.Duration // full sweep wall clock
	Edges      int64         // PAG edges traversed (deterministic)
}

// OpenWorldRow is one open-world workload: the oracle sweep plus the two
// open-world modes on the stripped counterpart.
type OpenWorldRow struct {
	Bench       string
	Deleted     int                      // stripped methods
	SpecExact   int                      // derived specs with exact flow rules
	SpecBlended int                      // derived specs that fell back to blended
	Cells       map[string]OpenWorldCell // "oracle", "blended", "specs"
}

// openWorldModes lists the per-workload sweep modes in report order.
var openWorldModes = []string{"oracle", "blended", "specs"}

// allQueryVars returns the deduplicated query variables of every client.
func allQueryVars(prog *pag.Program) []pag.NodeID {
	seen := map[pag.NodeID]bool{}
	var out []pag.NodeID
	add := func(v pag.NodeID) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, c := range prog.Casts {
		add(c.Var)
	}
	for _, d := range prog.Derefs {
		add(d.Var)
	}
	for _, f := range prog.Factories {
		add(f.Ret)
	}
	return out
}

// owSweep answers every query on eng, comparing each answer against the
// oracle set when oracleSets is non-nil.
func owSweep(eng *core.DynSum, queries []pag.NodeID, oracleSets map[pag.NodeID]*core.PointsToSet,
	cover map[pag.MethodID]pag.NodeID, oracleG *pag.Graph) OpenWorldCell {

	var cell OpenWorldCell
	before := eng.Metrics().Snapshot().EdgesTraversed
	start := time.Now()
	totalObjs := 0
	for _, v := range queries {
		pts, err := eng.PointsTo(v)
		if err != nil {
			cell.Skipped++
			continue
		}
		cell.Queries++
		totalObjs += len(pts.Objects())
		if oracleSets == nil {
			continue
		}
		want, ok := oracleSets[v]
		if !ok {
			continue // oracle skipped this query conservatively
		}
		for _, o := range want.Objects() {
			if pts.HasObject(o) {
				continue
			}
			if blob, deleted := cover[oracleG.Node(o).Method]; deleted && pts.HasObject(blob) {
				continue
			}
			cell.Unsound++
			break
		}
	}
	cell.Time = time.Since(start)
	cell.Edges = eng.Metrics().Snapshot().EdgesTraversed - before
	if cell.Queries > 0 {
		cell.AvgObjects = float64(totalObjs) / float64(cell.Queries)
	}
	return cell
}

// openWorldEngines builds the three sweep engines for one workload. The
// specs engine runs under PolicyBlended with the derived spec edges
// applied, so exact rules serve spec'd methods and blended blobs cover the
// derivation's fallbacks.
func openWorldEngines(bench *benchgen.OpenWorldBench, cfg core.Config) (oracle, blended, specs *core.DynSum, resolved *openworld.Resolved, err error) {
	oracle = core.NewDynSum(bench.Oracle.G, cfg, nil)

	blended = core.NewDynSum(bench.Stripped.G, cfg, nil)
	blended.EnableOpenWorld(core.PolicyBlended)

	specs = core.NewDynSum(bench.Stripped.G, cfg, nil)
	specs.EnableOpenWorld(core.PolicyBlended)
	resolved, err = openworld.Resolve(bench.Stripped.G, bench.Specs)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if _, err := specs.ApplySpecs(resolved.Edges, resolved.Exact); err != nil {
		return nil, nil, nil, nil, err
	}
	return oracle, blended, specs, resolved, nil
}

// RunOpenWorld measures every open-world workload at the options' scale.
func RunOpenWorld(opts Options) ([]OpenWorldRow, error) {
	opts = opts.WithDefaults()
	var rows []OpenWorldRow
	for _, ow := range benchgen.OpenWorldProfiles {
		if len(opts.Benchmarks) > 0 && !contains(opts.Benchmarks, ow.Base) && !contains(opts.Benchmarks, ow.Name()) {
			continue
		}
		bench, err := benchgen.GenerateOpenWorld(ow, opts.Scale, opts.Seed)
		if err != nil {
			return nil, err
		}
		oracle, blended, specs, resolved, err := openWorldEngines(bench, opts.config())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ow.Name(), err)
		}

		cover := make(map[pag.MethodID]pag.NodeID, len(bench.Deleted))
		for _, m := range bench.Deleted {
			info, ok := bench.Stripped.G.Bodyless(m)
			if !ok {
				return nil, fmt.Errorf("%s: deleted method %d not bodyless", ow.Name(), m)
			}
			cover[m] = info.BlobObj
		}

		queries := allQueryVars(bench.Oracle)
		row := OpenWorldRow{
			Bench:       ow.Name(),
			Deleted:     len(bench.Deleted),
			SpecExact:   len(resolved.Exact),
			SpecBlended: len(resolved.Blended),
			Cells:       make(map[string]OpenWorldCell, 3),
		}

		oracleCell := owSweep(oracle, queries, nil, nil, nil)
		oracleSets := make(map[pag.NodeID]*core.PointsToSet, len(queries))
		for _, v := range queries {
			if pts, err := oracle.PointsTo(v); err == nil {
				oracleSets[v] = pts
			}
		}
		row.Cells["oracle"] = oracleCell
		row.Cells["blended"] = owSweep(blended, queries, oracleSets, cover, bench.Oracle.G)
		row.Cells["specs"] = owSweep(specs, queries, oracleSets, cover, bench.Oracle.G)
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteOpenWorld renders the open-world soundness/precision/speed table.
func WriteOpenWorld(w io.Writer, opts Options) error {
	opts = opts.WithDefaults()
	rows, err := RunOpenWorld(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Open-world evaluation (scale %.3f, budget %d)\n", opts.Scale, opts.Budget)
	fmt.Fprintf(w, "modes: oracle = full bodies; blended = deleted bodies, blob summaries; specs = derived specs applied\n\n")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "workload\tdeleted\tspecs(exact/blended)\tmode\tqueries\tskipped\tunsound\tavg objs\ttime\tedges")
	totalUnsound := 0
	for _, r := range rows {
		for i, mode := range openWorldModes {
			c := r.Cells[mode]
			name, del, sp := "", "", ""
			if i == 0 {
				name = r.Bench
				del = fmt.Sprintf("%d", r.Deleted)
				sp = fmt.Sprintf("%d/%d", r.SpecExact, r.SpecBlended)
			}
			unsound := "-"
			if mode != "oracle" {
				unsound = fmt.Sprintf("%d", c.Unsound)
				totalUnsound += c.Unsound
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%s\t%.2f\t%s\t%d\n",
				name, del, sp, mode, c.Queries, c.Skipped, unsound, c.AvgObjects,
				fmtDuration(c.Time), c.Edges)
		}
	}
	tw.Flush()
	if totalUnsound > 0 {
		fmt.Fprintf(w, "\nUNSOUND: %d open-world answers dropped oracle objects\n", totalUnsound)
	} else {
		fmt.Fprintf(w, "\nsoundness holds: every open-world answer covers the oracle (blob-for-deleted-allocation)\n")
	}
	return nil
}

// OpenWorldBenchProfiles lists the workloads the bench-JSON emitter
// measures — one per base row at the middle deletion fraction, keeping the
// snapshot's runtime bounded.
var OpenWorldBenchProfiles = []string{"avrora-ow25", "luindex-ow25"}

// appendOpenWorldRecords measures the openworld/<bench>/{oracle,blended,
// specs} trajectory records: one op = a fresh engine answering the full
// query sweep.
func appendOpenWorldRecords(snap *BenchSnapshot, opts Options) {
	for _, name := range OpenWorldBenchProfiles {
		ow, ok := benchgen.OpenWorldProfileByName(name)
		if !ok {
			panic("harness: unknown open-world bench profile " + name)
		}
		bench, err := benchgen.GenerateOpenWorld(ow, opts.Scale, opts.Seed)
		if err != nil {
			panic(err)
		}
		resolved, err := openworld.Resolve(bench.Stripped.G, bench.Specs)
		if err != nil {
			panic(err)
		}
		queries := allQueryVars(bench.Oracle)
		dst := core.NewPointsToSet()

		sweep := func(mk func() *core.DynSum) BenchRecord {
			var edges, blendedSummaries int64
			r := measure(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d := mk()
					for _, v := range queries {
						dst.Reset()
						d.Query(nil, dst, v, intstack.Empty) // budget failures are part of the workload
					}
					m := d.Metrics().Snapshot()
					edges = m.EdgesTraversed
					blendedSummaries = m.BlendedSummaries
				}
			})
			rec := record("", opts.Scale, r)
			rec.EdgesTraversed = edges
			rec.BlendedSummaries = blendedSummaries
			return rec
		}

		rec := sweep(func() *core.DynSum { return core.NewDynSum(bench.Oracle.G, opts.config(), nil) })
		rec.Name = fmt.Sprintf("openworld/%s/oracle", name)
		snap.Records = append(snap.Records, rec)

		rec = sweep(func() *core.DynSum {
			d := core.NewDynSum(bench.Stripped.G, opts.config(), nil)
			d.EnableOpenWorld(core.PolicyBlended)
			return d
		})
		rec.Name = fmt.Sprintf("openworld/%s/blended", name)
		snap.Records = append(snap.Records, rec)

		rec = sweep(func() *core.DynSum {
			d := core.NewDynSum(bench.Stripped.G, opts.config(), nil)
			d.EnableOpenWorld(core.PolicyBlended)
			if _, err := d.ApplySpecs(resolved.Edges, resolved.Exact); err != nil {
				panic(err)
			}
			return d
		})
		rec.Name = fmt.Sprintf("openworld/%s/specs", name)
		snap.Records = append(snap.Records, rec)
	}
}
