package enginetest

import (
	"errors"
	"fmt"
	"io/fs"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/faultinject"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
)

// This file is the crash-recovery sweep of the persistence layer
// (DESIGN.md §13): a store is driven through a realistic lifecycle —
// create, warm, rotate, append epochs, rotate again, append more — and
// killed by an injected fault at every IO commit point, at sampled
// arrivals, across the engine-mode matrix. After each simulated process
// death the store is reopened and must answer byte-identically to a
// never-crashed oracle at whatever epoch recovery lands on, with the
// engine's structural validators green. A second suite pins the epoch-N
// round trip against freshly built engines on the evolve corpus.

// ioPoints are the persistence-layer injection points the sweep kills at.
var ioPoints = []faultinject.Point{
	faultinject.SnapshotWrite,
	faultinject.SnapshotRename,
	faultinject.JournalAppend,
	faultinject.JournalSync,
	faultinject.JournalRotate,
}

// persistFixture is the sweep's shared workload: a soot-c load order with
// enough waves that appends happen both before and after a mid-life
// journal rotation.
func persistFixture(t *testing.T) *benchgen.EvolveProgram {
	t.Helper()
	p := benchgen.ProfileByNameMust("soot-c").Scaled(0.004)
	ev, err := benchgen.GenerateEvolve(p, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func persistOpts(variant struct {
	name            string
	disableCache    bool
	disableCondense bool
}, ctxs *intstack.Table) persist.Options {
	cfg := bigBudget
	cfg.CompactFraction = -1
	cfg.DisableCache = variant.disableCache
	cfg.DisableCondense = variant.disableCondense
	return persist.Options{Config: cfg, Ctxs: ctxs}
}

// epochVars is the query batch at epoch e: the deref sites loaded so far.
func epochVars(ev *benchgen.EvolveProgram, e int) []pag.NodeID {
	var out []pag.NodeID
	for _, d := range ev.DerefsThrough(e) {
		out = append(out, d.Var)
	}
	return out
}

// epochOracle holds a never-crashed engine's answers at one epoch.
type epochOracle struct {
	vars []pag.NodeID
	pts  []*core.PointsToSet
	errs []error
}

// buildOracles replays the waves on fresh engines, capturing the answer
// batch at every epoch the crashed store could recover to.
func buildOracles(t *testing.T, ev *benchgen.EvolveProgram, opts persist.Options) []epochOracle {
	t.Helper()
	oracles := make([]epochOracle, ev.NumWaves())
	d := core.NewDynSum(ev.Base.G, opts.Config, opts.Ctxs)
	for e := 0; e < ev.NumWaves(); e++ {
		if e > 0 {
			log, err := d.NewDeltaLog()
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.WaveLog(log, e); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ApplyDelta(log); err != nil {
				t.Fatal(err)
			}
		}
		o := epochOracle{vars: epochVars(ev, e)}
		for _, v := range o.vars {
			pts, err := d.PointsTo(v)
			o.pts = append(o.pts, pts)
			o.errs = append(o.errs, err)
		}
		oracles[e] = o
	}
	return oracles
}

// runPersistScenario drives the store lifecycle the sweep kills:
//
//	Create → warm queries → Compact (rotation with warm cache)
//	→ Append wave 1 → Append wave 2 → Compact → Append wave 3 → …
//
// It returns normally or panics with *faultinject.Fault (the simulated
// process death); the caller recovers. The store is closed either way.
func runPersistScenario(t *testing.T, dir string, ev *benchgen.EvolveProgram, opts persist.Options) {
	t.Helper()
	st, err := persist.Create(dir, ev.Base, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer st.Close()
	for _, v := range epochVars(ev, 0) {
		st.Engine().PointsTo(v) //nolint:errcheck // warming only
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("initial Compact: %v", err)
	}
	rotateAt := ev.NumWaves() - 2 // one more append lands after this rotation
	for k := 1; k < ev.NumWaves(); k++ {
		log, err := st.Engine().NewDeltaLog()
		if err != nil {
			t.Fatalf("wave %d: NewDeltaLog: %v", k, err)
		}
		if err := ev.WaveLog(log, k); err != nil {
			t.Fatalf("wave %d: WaveLog: %v", k, err)
		}
		if _, err := st.Append(log); err != nil {
			t.Fatalf("wave %d: Append: %v", k, err)
		}
		for _, v := range epochVars(ev, k) {
			st.Engine().PointsTo(v) //nolint:errcheck // warming only
		}
		if k == rotateAt {
			if err := st.Compact(); err != nil {
				t.Fatalf("mid-life Compact: %v", err)
			}
		}
	}
}

// crashScenario runs the scenario expecting the armed fault to kill it,
// and returns the recovered *Fault (nil if the scenario survived).
func crashScenario(t *testing.T, dir string, ev *benchgen.EvolveProgram, opts persist.Options) (f *faultinject.Fault) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if f, ok = faultinject.AsFault(r); !ok {
				panic(r)
			}
		}
	}()
	runPersistScenario(t, dir, ev, opts)
	return nil
}

// TestPersistCrashRecoverySweep is the acceptance sweep: every IO fault
// point × sampled arrivals × engine modes. After each kill, Open must
// succeed (or report the store was never created, for deaths inside the
// very first snapshot write — recovery is then re-creation), the
// recovered epoch must be one the lifecycle actually reached, answers at
// that epoch must match the never-crashed oracle byte-for-byte, and
// CheckIntegrity must pass.
func TestPersistCrashRecoverySweep(t *testing.T) {
	ev := persistFixture(t)
	for _, variant := range faultVariants {
		t.Run(variant.name, func(t *testing.T) {
			ctxs := new(intstack.Table)
			opts := persistOpts(variant, ctxs)
			oracles := buildOracles(t, ev, opts)

			// Counting run: learn how often this mode crosses each point.
			cs := faultinject.NewSchedule()
			faultinject.Activate(cs)
			runPersistScenario(t, t.TempDir(), ev, opts)
			faultinject.Deactivate()

			for _, p := range ioPoints {
				n := cs.Arrivals(p)
				if n == 0 {
					t.Errorf("scenario never crosses %s", p)
					continue
				}
				for _, k := range sampleArrivals(n) {
					tag := fmt.Sprintf("%s@%d", p, k)
					dir := t.TempDir()
					s := faultinject.NewSchedule()
					s.Arm(p, k)
					faultinject.Activate(s)
					fault := crashScenario(t, dir, ev, opts)
					faultinject.Deactivate()
					if fault == nil || fault.Point != p {
						t.Errorf("%s: scenario survived or died elsewhere (%v)", tag, fault)
						continue
					}

					st, err := persist.Open(dir, opts)
					if errors.Is(err, fs.ErrNotExist) {
						// Death inside Create's first snapshot write: the
						// rename never landed, so there is no store.
						// Recovery is re-creation from the source program.
						if st, err = persist.Create(dir, ev.Base, opts); err != nil {
							t.Errorf("%s: re-Create after pre-snapshot death: %v", tag, err)
							continue
						}
					} else if err != nil {
						t.Errorf("%s: Open after crash: %v", tag, err)
						continue
					}

					e := int(st.Epoch())
					if e >= len(oracles) {
						t.Errorf("%s: recovered epoch %d beyond lifecycle", tag, e)
						st.Close()
						continue
					}
					o := oracles[e]
					for i, v := range o.vars {
						got, errG := st.Engine().PointsTo(v)
						compareOn(t, fmt.Sprintf("%s epoch %d", tag, e), evolveNamer{st.Engine()},
							v, got, o.pts[i], errG, o.errs[i], true)
					}
					if err := st.Engine().CheckIntegrity(); err != nil {
						t.Errorf("%s: CheckIntegrity: %v", tag, err)
					}
					st.Close()
				}
			}
		})
	}
}

// TestPersistRoundTripEquivalenceCorpus pins the epoch-N>0 round trip on
// the evolve corpus: a store that appended every wave, reopened, must
// answer exactly like (a) the never-persisted store engine and (b) a
// from-scratch engine on the rebuilt full prefix.
func TestPersistRoundTripEquivalenceCorpus(t *testing.T) {
	scale := 0.01
	if testing.Short() {
		scale = 0.004
	}
	profiles := []string{"soot-c", "soot-c-cyclic", "bloat-cyclic", "soot-c-diamond"}
	for _, name := range profiles {
		t.Run(name, func(t *testing.T) {
			p := benchgen.ProfileByNameMust(name).Scaled(scale)
			ev, err := benchgen.GenerateEvolve(p, 7, benchgen.DefaultEvolveWaves)
			if err != nil {
				t.Fatal(err)
			}
			ctxs := new(intstack.Table)
			cfg := bigBudget
			cfg.CompactFraction = -1
			opts := persist.Options{Config: cfg, Ctxs: ctxs}
			dir := t.TempDir()
			st, err := persist.Create(dir, ev.Base, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for k := 1; k < ev.NumWaves(); k++ {
				log, err := st.Engine().NewDeltaLog()
				if err != nil {
					t.Fatal(err)
				}
				if err := ev.WaveLog(log, k); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Append(log); err != nil {
					t.Fatal(err)
				}
			}
			last := ev.NumWaves() - 1
			re, err := persist.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Epoch() != uint64(last) {
				t.Fatalf("recovered epoch %d, want %d", re.Epoch(), last)
			}

			prefix, err := ev.BuildPrefix(last)
			if err != nil {
				t.Fatal(err)
			}
			scratch := core.NewDynSum(prefix.G, bigBudget, ctxs)
			queried := 0
			for _, v := range epochVars(ev, last) {
				got, errG := re.Engine().PointsTo(v)
				live, errL := st.Engine().PointsTo(v)
				want, errW := scratch.PointsTo(v)
				compareOn(t, name+" reopened-vs-live", evolveNamer{st.Engine()}, v, got, live, errG, errL, true)
				compareOn(t, name+" reopened-vs-scratch", prefix.G, v, got, want, errG, errW, true)
				queried++
			}
			if queried == 0 {
				t.Fatal("empty query sweep")
			}
		})
	}
}
