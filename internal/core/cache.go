package core

import (
	"sync"

	"dynsum/internal/faultinject"
	"dynsum/internal/pag"
)

// This file implements the concurrent summary cache backing DynSum: a
// striped-lock hash map from PPTA start states to cached results. Sharding
// keeps the batch-query workers from serialising on one lock — each
// ⟨node, field-stack, state⟩ key hashes to one of summaryShards independent
// stripes, so concurrent queries touching different methods proceed without
// contention while still sharing every summary (the paper's Figure 4
// batch-amortisation effect, now across goroutines as well as across
// queries).
//
// Alongside the key-sharded entry map the cache maintains a per-method key
// index: every inserted key is also appended to its method's list (the
// method of a key never changes — condensed keys are SCC representatives,
// and assign SCCs never cross methods). Invalidating a method then walks the
// one affected list instead of scanning every shard's full map, making
// invalidation O(entries of that method) — the cost profile an IDE doing
// per-edit invalidation needs once write-backs grow the cache to many
// entries per method.
//
// Cached pptaResults are immutable once inserted; readers receive the
// shared pointer and must not mutate it. Two workers that miss on the same
// key may both run the PPTA; the computation is deterministic up to
// element order, so whichever insert lands last overwrites a set-identical
// value.

// summaryShards is the stripe count; a power of two so the shard pick is a
// mask, sized well above any realistic worker count.
const summaryShards = 64

// summaryCache is a sharded map from pptaState to *pptaResult, plus the
// method-keyed invalidation index.
type summaryCache struct {
	shards  [summaryShards]summaryShard
	methods [summaryShards]methodShard
}

type summaryShard struct {
	mu sync.RWMutex
	m  map[pptaState]*pptaResult
}

// methodShard is one stripe of the invalidation index: method → keys
// inserted for that method. Lists may carry duplicates (racing workers
// inserting the same key append twice); deleteMethod counts only real
// removals, so duplicates cost a little index memory, never correctness.
// The map is allocated on first insert: short-lived engines (the cold
// benchmark loops build one per op) then pay nothing for stripes they
// never touch.
type methodShard struct {
	mu sync.Mutex
	m  map[pag.MethodID][]pptaState
}

func newSummaryCache() *summaryCache {
	c := new(summaryCache)
	for i := range c.shards {
		c.shards[i].m = make(map[pptaState]*pptaResult)
	}
	return c
}

func (c *summaryCache) shard(k pptaState) *summaryShard {
	h := uint32(k.node)*0x9E3779B1 ^ uint32(k.fs)*0x85EBCA77 ^ uint32(k.st)
	h ^= h >> 16
	return &c.shards[h&(summaryShards-1)]
}

func (c *summaryCache) methodShard(m pag.MethodID) *methodShard {
	h := uint32(m) * 0x9E3779B1
	h ^= h >> 16
	return &c.methods[h&(summaryShards-1)]
}

func (c *summaryCache) get(k pptaState) (*pptaResult, bool) {
	s := c.shard(k)
	s.mu.RLock()
	r, ok := s.m[k]
	s.mu.RUnlock()
	return r, ok
}

// put inserts one entry, maintaining the method index. method must be the
// method of k's node. Index before entry, like putBatch: a fault in
// between leaves a tolerated stale index key, never an unreachable entry.
func (c *summaryCache) put(k pptaState, method pag.MethodID, r *pptaResult) {
	s := c.shard(k)
	s.mu.RLock()
	_, existed := s.m[k]
	s.mu.RUnlock()
	if !existed {
		ms := c.methodShard(method)
		ms.mu.Lock()
		if ms.m == nil {
			ms.m = make(map[pag.MethodID][]pptaState, 8)
		}
		ms.m[method] = append(ms.m[method], k)
		ms.mu.Unlock()
	}
	s.mu.Lock()
	s.m[k] = r
	s.mu.Unlock()
}

// putBatch inserts the write-back set of one completed PPTA run: keys[i]
// maps to results[i] and lives in methods[i]. Runs of consecutive keys
// share one result pointer (the members of one state-graph SCC) and —
// since a PPTA run never leaves its start node's method — usually one
// method, so the index takes one lock per method segment, not per key.
// It returns how many keys were genuinely new; overwrites of entries
// another worker landed first are not counted, and not re-indexed.
//
// Ordering is the panic-safety invariant (DESIGN.md §12): within each
// segment the method index is extended FIRST, then the entries are
// inserted one by one. A fault at any instant in between leaves stale
// index keys — which deleteMethod tolerates (they count as zero) — but
// never a live cache entry the method index cannot reach, which is the
// violation CheckIntegrity reports. Freshness is probed under read locks
// before indexing; a racing worker inserting the same key between the
// probe and our insert costs one duplicate index key (tolerated, see
// methodShard) and may overcount fresh by one — the same tolerance the
// racing-insert comment at the top of the file already grants.
func (c *summaryCache) putBatch(keys []pptaState, methods []pag.MethodID, results []*pptaResult) int {
	fresh := 0
	var freshBuf []pptaState // cold path: one small allocation per batch
	for i := 0; i < len(keys); {
		m := methods[i]
		j := i
		freshBuf = freshBuf[:0]
		for ; j < len(keys) && methods[j] == m; j++ {
			k := keys[j]
			s := c.shard(k)
			s.mu.RLock()
			_, existed := s.m[k]
			s.mu.RUnlock()
			if !existed {
				freshBuf = append(freshBuf, k)
			}
		}
		if len(freshBuf) > 0 {
			fresh += len(freshBuf)
			ms := c.methodShard(m)
			ms.mu.Lock()
			if ms.m == nil {
				ms.m = make(map[pag.MethodID][]pptaState, 8)
			}
			ms.m[m] = append(ms.m[m], freshBuf...)
			ms.mu.Unlock()
		}
		for x := i; x < j; x++ {
			faultinject.Fire(faultinject.CachePutBatch)
			k := keys[x]
			s := c.shard(k)
			s.mu.Lock()
			s.m[k] = results[x]
			s.mu.Unlock()
		}
		i = j
	}
	return fresh
}

// size returns the total number of cached summaries across shards.
func (c *summaryCache) size() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// clear drops every entry and the whole method index, shard by shard,
// keeping the maps (and their buckets) alive so a re-warmed engine does
// not pay the allocation bill twice. Memory-safe against concurrent
// readers, but not an exact invalidation barrier: an in-flight query that
// missed before the clear may insert its summary afterwards — hence
// DynSum documents that callers must quiesce the engine before
// invalidating.
func (c *summaryCache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.m)
		s.mu.Unlock()
	}
	for i := range c.methods {
		ms := &c.methods[i]
		ms.mu.Lock()
		clear(ms.m)
		ms.mu.Unlock()
	}
}

// deleteMethod removes every entry recorded for method m, consulting the
// per-method index instead of scanning the shards, and returns the number
// of entries actually removed (index duplicates deflate to zero here).
func (c *summaryCache) deleteMethod(m pag.MethodID) int {
	ms := c.methodShard(m)
	ms.mu.Lock()
	keys := ms.m[m]
	delete(ms.m, m)
	ms.mu.Unlock()
	dropped := 0
	for _, k := range keys {
		s := c.shard(k)
		s.mu.Lock()
		if _, ok := s.m[k]; ok {
			delete(s.m, k)
			dropped++
		}
		s.mu.Unlock()
	}
	return dropped
}

// deleteIf removes every entry whose key satisfies pred, returning the
// number removed. This is the legacy full-scan invalidation — O(cache),
// not O(method) — kept for predicates the method index cannot answer and
// as the baseline the invalidation micro-benchmark compares against. It
// does NOT update the method index: stale index entries are tolerated by
// deleteMethod (they count as zero) but do retain key memory, so prefer
// deleteMethod for method-shaped invalidation.
func (c *summaryCache) deleteIf(pred func(pptaState) bool) int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.m {
			if pred(k) {
				delete(s.m, k)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}
