package core

import (
	"errors"
	"strings"
	"testing"

	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

// warmEngine builds an engine over a random frozen program, lowers the
// intern threshold so the hash-consing path runs, and answers every
// local-variable query to populate the cache.
func warmEngine(t *testing.T) *DynSum {
	t.Helper()
	prev := internMinSummaries
	internMinSummaries = 0
	t.Cleanup(func() { internMinSummaries = prev })

	p := fixture.RandProgram(11, fixture.RandConfig{Globals: 2, GlobalAssigns: 4})
	d := NewDynSum(p.G, Config{}, nil)
	for _, v := range fixture.AllLocals(p) {
		if _, err := d.PointsTo(v); err != nil && !errors.Is(err, ErrDepth) && !errors.Is(err, ErrBudget) {
			t.Fatalf("PointsTo(%d): %v", v, err)
		}
	}
	if d.SummaryCount() == 0 {
		t.Fatal("cache stayed empty; fixture too small")
	}
	return d
}

func TestCheckIntegrityHealthy(t *testing.T) {
	d := warmEngine(t)
	if err := d.CheckIntegrity(); err != nil {
		t.Errorf("healthy engine flagged: %v", err)
	}
}

func TestCheckIntegrityUnindexedEntry(t *testing.T) {
	d := warmEngine(t)
	// Plant an entry directly in its shard, bypassing the method index —
	// exactly the corruption per-method invalidation could never clean up.
	k := pptaState{node: 0, fs: 0, st: S1}
	s := d.cache.shard(k)
	s.mu.Lock()
	s.m[k] = &pptaResult{}
	s.mu.Unlock()
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "not reachable from the method index") {
		t.Fatalf("unindexed entry not detected: %v", err)
	}
}

func TestCheckIntegrityKeyOutOfRange(t *testing.T) {
	d := warmEngine(t)
	k := pptaState{node: 99999, fs: 0, st: S1}
	s := d.cache.shard(k)
	s.mu.Lock()
	s.m[k] = &pptaResult{}
	s.mu.Unlock()
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "outside the view") {
		t.Fatalf("out-of-range key not detected: %v", err)
	}
}

func TestCheckIntegrityInternMisfiled(t *testing.T) {
	d := warmEngine(t)
	sh := &d.intern.shards[0]
	sh.mu.Lock()
	if sh.objects == nil {
		sh.objects = make(map[uint64][]pag.NodeID)
	}
	sh.objects[12345] = []pag.NodeID{1, 2, 3}
	sh.mu.Unlock()
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Fatalf("misfiled intern slice not detected: %v", err)
	}
}

func TestCheckIntegrityInternMutated(t *testing.T) {
	d := warmEngine(t)
	objs := []pag.NodeID{7, 8, 9}
	canon := d.intern.objects(objs)
	canon[0] = 42 // violates the immutability contract of interned slices
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "mutated") {
		t.Fatalf("mutated canonical slice not detected: %v", err)
	}
}
