package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"micgraph/internal/gen"
	"micgraph/internal/xrand"
)

// loadInt is a loader returning v with the given resident size.
func loadInt(v int, bytes int64) Loader {
	return func(context.Context) (any, int64, error) { return v, bytes, nil }
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1000)
	ctx := context.Background()
	v, err := c.Get(ctx, "a", loadInt(1, 100))
	if err != nil || v.(int) != 1 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	// Second get must hit without invoking the loader.
	v, err = c.Get(ctx, "a", func(context.Context) (any, int64, error) {
		t.Error("loader invoked on a resident key")
		return nil, 0, nil
	})
	if err != nil || v.(int) != 1 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Loads != 1 || st.ResidentBytes != 100 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// resident reports whether key is resident in c, without using it.
func resident(c *Cache, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// residents lists c's resident keys, sorted, without using them.
func residents(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestCacheEvictionOrder pins the LFU-DA order by which key each over-budget
// insert evicts: of equal priorities the least recently used goes, but the
// entry hit once outlives the one-off loaded after it.
func TestCacheEvictionOrder(t *testing.T) {
	c := NewCache(300)
	ctx := context.Background()
	for i, key := range []string{"a", "b", "c"} {
		if _, err := c.Get(ctx, key, loadInt(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Hit "a": its priority is 2, the others' 1. d comes in at 1 and b, the
	// least recently used 1, goes; the age is then 1, so e and f come in at
	// 2, and the 1s left go first, c and then d: a outlives the one-off d
	// loaded after its hit.
	if _, err := c.Get(ctx, "a", loadInt(-1, 100)); err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct{ insert, victim string }{{"d", "b"}, {"e", "c"}, {"f", "d"}} {
		if _, err := c.Get(ctx, step.insert, loadInt(3+i, 100)); err != nil {
			t.Fatal(err)
		}
		if resident(c, step.victim) {
			t.Errorf("inserting %q did not evict %q", step.insert, step.victim)
		}
		if st := c.Stats(); st.Evictions != int64(i+1) || st.ResidentBytes != 300 || st.Entries != 3 {
			t.Errorf("after inserting %q: stats = %+v", step.insert, st)
		}
	}
	for _, key := range []string{"a", "e", "f"} {
		if !resident(c, key) {
			t.Errorf("%q is not resident", key)
		}
	}
}

// TestCacheHotSetSurvivesOneOffs streams two one-off entries a round between
// hits of a hot set, under a budget that holds the hot set and one one-off:
// the hot set is loaded once and never again (LRU would evict a hot entry in
// every round), and every one-off but the first evicts exactly one entry.
func TestCacheHotSetSurvivesOneOffs(t *testing.T) {
	const rounds = 50
	hot := []string{"h0", "h1", "h2"}
	c := NewCache(int64(len(hot)+1) * 100)
	ctx := context.Background()
	get := func(key string) {
		if _, err := c.Get(ctx, key, loadInt(0, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		for _, key := range hot {
			get(key)
		}
	}
	for r := range rounds {
		get(fmt.Sprintf("once%d", 2*r))
		get(fmt.Sprintf("once%d", 2*r+1))
		for _, key := range hot {
			get(key)
		}
	}
	st := c.Stats()
	if st.Loads != int64(len(hot)+2*rounds) || st.Evictions != 2*rounds-1 || st.Hits != int64(len(hot)*(rounds+1)) {
		t.Errorf("stats = %+v, want %d loads, %d evictions, %d hits", st, len(hot)+2*rounds, 2*rounds-1, len(hot)*(rounds+1))
	}
	for _, key := range hot {
		if !resident(c, key) {
			t.Errorf("hot %q was evicted", key)
		}
	}
}

// TestCacheAging hits an entry k times and then streams one-offs past it
// under a budget that holds only it: each one-off is evicted on arrival and
// raises the age by one, so after k of them the next one-off's priority
// reaches the cold entry's, which, used less recently, goes instead.
func TestCacheAging(t *testing.T) {
	for _, k := range []int{0, 1, 5, 40} {
		c := NewCache(100)
		ctx := context.Background()
		for range k + 1 {
			if _, err := c.Get(ctx, "warm", loadInt(0, 100)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; ; i++ {
			if _, err := c.Get(ctx, fmt.Sprintf("once%d", i), loadInt(i, 100)); err != nil {
				t.Fatal(err)
			}
			if !resident(c, "warm") {
				if i != k+1 {
					t.Errorf("hit %d times, evicted by one-off %d, want %d", k, i, k+1)
				}
				break
			}
			if i > k+1 {
				t.Fatalf("hit %d times, still resident after %d one-offs", k, i)
			}
		}
	}
}

// TestCacheEvictionDeterministic replays one seeded sequence of Gets of mixed
// sizes and popularity twice: the same keys must be evicted in the same order.
func TestCacheEvictionDeterministic(t *testing.T) {
	replay := func() []string {
		c := NewCache(1000)
		ctx := context.Background()
		r := xrand.New(7)
		var victims []string
		for range 2000 {
			// A skewed key: low ids far more often than high ones.
			id := r.Intn(1 + r.Intn(1+r.Intn(200)))
			key := fmt.Sprintf("k%d", id)
			before := residents(c)
			if _, err := c.Get(ctx, key, loadInt(id, int64(50+id%7*40))); err != nil {
				t.Fatal(err)
			}
			for _, k := range append(before, key) {
				if !resident(c, k) {
					victims = append(victims, k)
				}
			}
		}
		return victims
	}
	first, second := replay(), replay()
	if len(first) < 100 {
		t.Fatalf("%d evictions, too few to tell", len(first))
	}
	if !slices.Equal(first, second) {
		t.Errorf("two replays evicted differently:\n%v\n%v", first, second)
	}
}

func TestCacheByteAccounting(t *testing.T) {
	c := NewCache(250)
	ctx := context.Background()
	c.Get(ctx, "a", loadInt(0, 100))
	c.Get(ctx, "b", loadInt(0, 100))
	if st := c.Stats(); st.ResidentBytes != 200 {
		t.Fatalf("resident = %d, want 200", st.ResidentBytes)
	}
	// 100+100+120 > 250: the coldest entry ("a") goes, leaving 220.
	c.Get(ctx, "big", loadInt(0, 120))
	st := c.Stats()
	if st.ResidentBytes != 220 || st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
	// An entry larger than the whole budget is returned but not retained —
	// and must not evict anything on the way.
	v, err := c.Get(ctx, "huge", loadInt(7, 1000))
	if err != nil || v.(int) != 7 {
		t.Fatalf("oversized Get = %v, %v", v, err)
	}
	if st := c.Stats(); st.Entries != 2 || st.ResidentBytes != 220 || st.Evictions != 1 {
		t.Errorf("oversized entry disturbed the cache: %+v", c.Stats())
	}
}

func TestCacheLoadErrorNotCached(t *testing.T) {
	c := NewCache(1000)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, err := c.Get(ctx, "a", func(context.Context) (any, int64, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed load cached: %+v", st)
	}
	// Next get retries the loader.
	if v, err := c.Get(ctx, "a", loadInt(5, 10)); err != nil || v.(int) != 5 {
		t.Fatalf("Get after failure = %v, %v", v, err)
	}
}

// TestCacheSingleflightHammer runs many concurrent getters of one fresh key
// per round under -race: every getter must see the same loaded value, and
// the loader must run exactly once per round.
func TestCacheSingleflightHammer(t *testing.T) {
	const (
		getters = 32
		rounds  = 20
	)
	c := NewCache(1 << 20)
	ctx := context.Background()
	var loads atomic.Int64
	for round := 0; round < rounds; round++ {
		key := fmt.Sprintf("k%d", round) // a key no earlier round loaded
		gate := make(chan struct{})
		var wg sync.WaitGroup
		vals := make([]int, getters)
		for i := 0; i < getters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-gate
				v, err := c.Get(ctx, key, func(context.Context) (any, int64, error) {
					loads.Add(1)
					return round, 64, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				vals[i] = v.(int)
			}(i)
		}
		close(gate)
		wg.Wait()
		for i, v := range vals {
			if v != round {
				t.Fatalf("round %d getter %d saw %d", round, i, v)
			}
		}
		if got := loads.Load(); got != int64(round+1) {
			t.Fatalf("round %d: %d loads, want %d (singleflight violated)", round, got, round+1)
		}
	}
	st := c.Stats()
	if st.Loads != rounds {
		t.Errorf("stats.Loads = %d, want %d", st.Loads, rounds)
	}
	if st.Shared+st.Hits != rounds*(getters-1) {
		t.Errorf("shared+hits = %d, want %d", st.Shared+st.Hits, rounds*(getters-1))
	}
}

func TestGraphBytes(t *testing.T) {
	g := gen.Grid2D(5, 5)
	want := int64(g.NumVertices()+1)*8 + g.NumArcs()*4
	if got := GraphBytes(g); got != want {
		t.Errorf("GraphBytes = %d, want %d", got, want)
	}
}
