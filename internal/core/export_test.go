package core

import (
	"fmt"
	"sort"

	"dynsum/internal/pag"
)

// CacheDump renders every summary-cache entry — key fields and full result
// contents — as a sorted string list. Tests use it to assert that an
// operation left the cache byte-identical (the abort-rollback guarantee)
// without exporting the cache types themselves.
func CacheDump(d *DynSum) []string {
	var out []string
	for i := range d.cache.shards {
		s := &d.cache.shards[i]
		s.mu.RLock()
		for k, r := range s.m {
			out = append(out, fmt.Sprintf("n%d/f%d/%s objs=%v frontier=%v",
				k.node, k.fs, k.st, r.objs, r.frontier))
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// MethodIndexSize returns the number of keys recorded in the per-method
// invalidation index (duplicates included), for index-hygiene assertions.
func MethodIndexSize(d *DynSum) int {
	n := 0
	for i := range d.cache.methods {
		ms := &d.cache.methods[i]
		ms.mu.Lock()
		for _, keys := range ms.m {
			n += len(keys)
		}
		ms.mu.Unlock()
	}
	return n
}

// DeleteIfMethod invalidates method m through the legacy full-scan path
// (deleteIf), bypassing the per-method index — the baseline the
// invalidation micro-benchmark compares the indexed path against.
func DeleteIfMethod(d *DynSum, m pag.MethodID) int {
	return d.cache.deleteIf(func(k pptaState) bool {
		return d.g.Node(k.node).Method == m
	})
}

// RestoreMethod re-inserts previously dumped entries for benchmarks that
// must leave the cache as they found it between iterations. entries are
// (key, result) pairs captured by SnapshotMethod. The method's index list
// is dropped first: put() re-indexes every restored key, so a stale list
// (deleteIf-based invalidation leaves one behind) would otherwise grow by
// a duplicate set per restore.
func RestoreMethod(d *DynSum, m pag.MethodID, entries []CacheEntry) {
	ms := d.cache.methodShard(m)
	ms.mu.Lock()
	delete(ms.m, m)
	ms.mu.Unlock()
	for _, e := range entries {
		d.cache.put(e.key, d.g.Node(e.key.node).Method, e.res)
	}
}

// CacheEntry is an opaque captured cache entry (see SnapshotMethod).
type CacheEntry struct {
	key pptaState
	res *pptaResult
}

// SnapshotMethod captures every cache entry belonging to method m.
func SnapshotMethod(d *DynSum, m pag.MethodID) []CacheEntry {
	var out []CacheEntry
	for i := range d.cache.shards {
		s := &d.cache.shards[i]
		s.mu.RLock()
		for k, r := range s.m {
			if d.g.Node(k.node).Method == m {
				out = append(out, CacheEntry{key: k, res: r})
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// InvalidateMethod drops method m's summaries through the per-method key
// index — the invalidation ApplyDelta performs for each touched method.
func InvalidateMethod(d *DynSum, m pag.MethodID) int { return d.cache.deleteMethod(m) }
