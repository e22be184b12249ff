// Package serve is the serving subsystem of the reproduction: a resident
// daemon layer that amortises graph load and layout cost across many kernel
// runs and experiment sweeps. One-shot CLIs (micrun, micbench) regenerate
// their inputs on every invocation; micserved keeps them resident behind a
// byte-budgeted cache and runs submitted jobs on a fixed worker pool with
// admission control, per-job deadlines, streaming JSONL results, and fault
// containment — an injected stall or panic fails the job that drew it,
// never the daemon.
package serve

import (
	"context"
	"sync"

	"micgraph/internal/graph"
)

// CacheStats is a point-in-time snapshot of cache activity, exported by
// /metricsz and asserted by the end-to-end tests: Loads counts actual
// loader invocations, Shared counts getters that piggy-backed on another
// getter's in-flight load (singleflight dedup), so two concurrent sweeps
// over one graph show Loads=1 regardless of arrival order.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Loads         int64 `json:"loads"`
	Shared        int64 `json:"shared"`
	Evictions     int64 `json:"evictions"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
	Entries       int   `json:"entries"`
}

// centry is one resident cache entry.
type centry struct {
	val   any
	bytes int64
	uses  int64  // its load and every hit since
	prio  int64  // the cache's age at its last use, plus uses
	last  uint64 // the cache's tick at its last use
}

// inflight is one in-progress load that later getters of the same key wait
// on instead of loading again.
type inflight struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a concurrency-safe cache of loaded graphs (and generated
// experiment suites) with two behaviours the serving path needs:
//
//   - Eviction by resident bytes, least frequently used first with dynamic
//     aging (LFU-DA, GreedyDual-Size-Frequency with a load's cost taken as
//     proportional to its bytes): entries are sized by their CSR footprint,
//     and each keeps the priority age + uses, refreshed on every hit, where
//     age is the priority of the last entry evicted. Once an insert exceeds
//     the byte budget, the lowest priority goes first, the newcomer included,
//     and of equal priorities the least recently used. A graph many jobs hit
//     thus outlives a stream of one-off graphs, while age lets an entry that
//     has gone cold fall behind newer ones after about as many evictions as
//     it had hits. The order is integer arithmetic on counters, no clock, so
//     the same Gets always evict the same entries. An entry larger than the
//     whole budget is returned to its getter but not retained.
//
//   - Singleflight dedup: N concurrent Gets for one key run the loader
//     once; the other N-1 block until it finishes and share the result
//     (or its error). Loads for different keys proceed independently.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*centry
	age     int64  // the priority of the last entry evicted
	tick    uint64 // counts uses, to order entries by recency
	loading map[string]*inflight
	stats   CacheStats
}

// NewCache creates a cache holding at most budget resident bytes (a budget
// <= 0 keeps nothing resident; every Get still works, via its loader).
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		entries: make(map[string]*centry),
		loading: make(map[string]*inflight),
	}
}

// Loader produces the value and its resident size in bytes for one key.
type Loader func(ctx context.Context) (any, int64, error)

// Get returns the cached value for key, loading it with load on a miss.
// Concurrent Gets for the same key trigger one load; the rest wait for it
// (or for their own context to be cancelled — cancellation of a waiter
// never cancels the load itself, which other getters may still want).
func (c *Cache) Get(ctx context.Context, key string, load Loader) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.useLocked(e)
		c.stats.Hits++
		c.mu.Unlock()
		return e.val, nil
	}
	c.stats.Misses++
	if fl, ok := c.loading[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.val, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &inflight{done: make(chan struct{})}
	c.loading[key] = fl
	c.stats.Loads++
	c.mu.Unlock()

	val, bytes, err := load(ctx)

	c.mu.Lock()
	delete(c.loading, key)
	fl.val, fl.err = val, err
	if err == nil {
		c.insertLocked(key, val, bytes)
	}
	close(fl.done)
	c.mu.Unlock()
	return val, err
}

// useLocked counts one use of e and refreshes its priority and recency.
func (c *Cache) useLocked(e *centry) {
	e.uses++
	e.prio = c.age + e.uses
	c.tick++
	e.last = c.tick
}

// insertLocked adds the entry and evicts the lowest priority, least recently
// used of equals first, until the budget holds again; the new entry may be
// the one to go. An entry larger than the whole budget is not inserted at
// all — retaining it is impossible, and evicting everything else first just
// to discover that would wipe the cache. Each victim is found by a scan of
// the entries: an eviction follows a load of milliseconds, and a scan of a
// thousand entries takes microseconds.
func (c *Cache) insertLocked(key string, val any, bytes int64) {
	if bytes > c.budget {
		return
	}
	e := &centry{val: val, bytes: bytes}
	c.useLocked(e)
	c.entries[key] = e
	c.bytes += bytes
	for c.bytes > c.budget {
		var vkey string
		var victim *centry
		for k, e := range c.entries {
			if victim == nil || e.prio < victim.prio || e.prio == victim.prio && e.last < victim.last {
				vkey, victim = k, e
			}
		}
		delete(c.entries, vkey)
		c.bytes -= victim.bytes
		c.age = victim.prio
		c.stats.Evictions++
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.ResidentBytes = c.bytes
	s.BudgetBytes = c.budget
	s.Entries = len(c.entries)
	return s
}

// GraphBytes is the resident CSR footprint of a graph: 8 bytes per xadj
// offset plus 4 per adjacency entry.
func GraphBytes(g *graph.Graph) int64 {
	return int64(len(g.Xadj()))*8 + int64(len(g.AdjRaw()))*4
}
