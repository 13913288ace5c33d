// Command experiments regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	experiments -all                 # everything, default scale 0.02
//	experiments -table 4 -scale 0.05 # one table, bigger benchmarks
//	experiments -figure 5 -bench soot-c,bloat,jython
//
// Wall-clock numbers vary with the machine; each experiment also prints
// deterministic work counters (PAG edges traversed), which are the numbers
// EXPERIMENTS.md quotes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dynsum/internal/harness"
)

// main delegates to realMain so every error path returns through the
// deferred profile writers: os.Exit skips defers, which would leave a
// truncated (unparseable) CPU profile and no heap profile exactly on the
// runs one most wants to debug.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		table        = flag.Int("table", 0, "render one table (1-4)")
		figure       = flag.Int("figure", 0, "render one figure (4 or 5)")
		all          = flag.Bool("all", false, "render every table and figure")
		scale        = flag.Float64("scale", 0.02, "benchmark scale factor (1.0 = paper-sized)")
		seed         = flag.Int64("seed", 1, "generator seed")
		budget       = flag.Int("budget", 75000, "per-query traversal budget")
		batches      = flag.Int("batches", 10, "query batches for figures 4 and 5")
		benchCSV     = flag.String("bench", "", "comma-separated benchmark subset (default: all nine)")
		asCSV        = flag.Bool("csv", false, "emit CSV instead of text tables (tables 3-4, figures 4-5)")
		ablations    = flag.Bool("ablations", false, "run the cache/locality/k-limit ablations")
		parallel     = flag.Bool("parallel", false, "run the batch-query parallel-speedup sweep")
		evolve       = flag.Bool("evolve", false, "run the dynamic-evolution experiment (delta overlay vs rebuild-from-scratch)")
		openWorld    = flag.Bool("openworld", false, "run the open-world evaluation (blended summaries and specs vs the full-body oracle)")
		benchJSON    = flag.String("bench-json", "", "measure the benchmark-trajectory workloads and write the snapshot to this JSON file (an existing baseline section in the file is preserved)")
		benchCompare = flag.String("bench-compare", "", "compare a snapshot file's current section against its baseline: fail on any deterministic counter mismatch, warn on wall-clock regressions")
		tolerance    = flag.Float64("tolerance", 0.2, "wall-clock warning tolerance ratio for -bench-compare (0.2 = 20%)")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	// Profiling hooks so perf PRs can attach flame graphs: the CPU profile
	// covers everything the invocation runs; the heap profile is snapshot
	// at exit (with a GC first, so live-object numbers are accurate). Both
	// flush on every return path, error exits included.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	opts := harness.Options{Scale: *scale, Seed: *seed, Budget: *budget, Batches: *batches}
	if *benchCSV != "" {
		opts.Benchmarks = strings.Split(*benchCSV, ",")
	}

	if *benchJSON != "" {
		if err := harness.WriteBenchJSONFile(*benchJSON, opts); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote benchmark snapshot to %s\n", *benchJSON)
		return 0
	}
	if *benchCompare != "" {
		// Wall-clock warnings are advisory (they vary by machine); a
		// deterministic counter mismatch is an error and fails the run.
		if _, err := harness.CompareBenchFile(os.Stdout, *benchCompare, *tolerance); err != nil {
			return fail(err)
		}
		return 0
	}

	w := os.Stdout
	if *asCSV {
		var err error
		switch {
		case *table == 3:
			err = harness.WriteTable3CSV(w, opts)
		case *table == 4:
			err = harness.WriteTable4CSV(w, opts)
		case *figure == 4:
			err = harness.WriteFigure4CSV(w, opts)
		case *figure == 5:
			err = harness.WriteFigure5CSV(w, opts)
		default:
			fmt.Fprintln(os.Stderr, "experiments: -csv needs -table 3|4 or -figure 4|5")
			return 2
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}
	ran := false
	run := func(id int, want int, f func()) {
		if *all || id == want {
			f()
			fmt.Fprintln(w)
			ran = true
		}
	}
	run(*table, 1, func() { harness.WriteTable1(w) })
	run(*table, 2, func() { harness.WriteTable2(w) })
	run(*table, 3, func() { harness.WriteTable3(w, opts) })
	run(*table, 4, func() { harness.WriteTable4(w, opts) })
	run(*figure, 4, func() { harness.WriteFigure4(w, opts) })
	run(*figure, 5, func() { harness.WriteFigure5(w, opts) })
	if *ablations || *all {
		harness.WriteAblations(w, opts)
		fmt.Fprintln(w)
		ran = true
	}
	if *parallel || *all {
		harness.WriteParallel(w, opts)
		fmt.Fprintln(w)
		ran = true
	}
	if *evolve || *all {
		harness.WriteEvolve(w, opts)
		fmt.Fprintln(w)
		ran = true
	}
	if *openWorld || *all {
		if err := harness.WriteOpenWorld(w, opts); err != nil {
			return fail(err)
		}
		fmt.Fprintln(w)
		ran = true
	}

	if !ran {
		fmt.Fprintln(os.Stderr, "nothing selected: use -all, -table N or -figure N")
		flag.Usage()
		return 2
	}
	return 0
}
