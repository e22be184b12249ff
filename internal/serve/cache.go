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
	"container/list"
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

// centry is one resident cache entry; elem's Value points back to it.
type centry struct {
	key   string
	val   any
	bytes int64
	elem  *list.Element
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
//   - LRU eviction by resident bytes: entries are sized by their CSR
//     footprint and evicted least-recently-used first once the byte budget
//     is exceeded. An entry larger than the whole budget is returned to its
//     getter but not retained.
//
//   - Singleflight dedup: N concurrent Gets for one key run the loader
//     once; the other N-1 block until it finishes and share the result
//     (or its error). Loads for different keys proceed independently.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*centry
	lru     *list.List // front = most recently used
	loading map[string]*inflight
	stats   CacheStats
}

// NewCache creates a cache holding at most budget resident bytes (a budget
// <= 0 keeps nothing resident; every Get still works, via its loader).
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		entries: make(map[string]*centry),
		lru:     list.New(),
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
		c.lru.MoveToFront(e.elem)
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

// insertLocked adds the entry as most-recently-used and evicts from the
// cold end until the budget holds again. An entry larger than the whole
// budget is not inserted at all — retaining it is impossible, and evicting
// everything else first just to discover that would wipe the cache.
func (c *Cache) insertLocked(key string, val any, bytes int64) {
	if bytes > c.budget {
		return
	}
	e := &centry{key: key, val: val, bytes: bytes}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += bytes
	for c.bytes > c.budget && c.lru.Len() > 0 {
		cold := c.lru.Back().Value.(*centry)
		c.lru.Remove(cold.elem)
		delete(c.entries, cold.key)
		c.bytes -= cold.bytes
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
