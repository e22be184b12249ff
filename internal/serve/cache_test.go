package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"micgraph/internal/gen"
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

// TestCacheEvictionOrder pins least-recently-used order by which key each
// over-budget insert evicts.
func TestCacheEvictionOrder(t *testing.T) {
	c := NewCache(300)
	ctx := context.Background()
	// missing probes key without disturbing the cache: an entry larger than
	// the budget is handed back but neither retained nor evicts anything.
	missing := func(key string) bool {
		loaded := false
		if _, err := c.Get(ctx, key, func(context.Context) (any, int64, error) {
			loaded = true
			return 0, 1000, nil
		}); err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	for i, key := range []string{"a", "b", "c"} {
		if _, err := c.Get(ctx, key, loadInt(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so the order, coldest first, is b, c, a.
	if _, err := c.Get(ctx, "a", loadInt(-1, 100)); err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct{ insert, victim string }{{"d", "b"}, {"e", "c"}, {"f", "a"}} {
		if _, err := c.Get(ctx, step.insert, loadInt(3+i, 100)); err != nil {
			t.Fatal(err)
		}
		if !missing(step.victim) {
			t.Errorf("inserting %q did not evict %q", step.insert, step.victim)
		}
		if st := c.Stats(); st.Evictions != int64(i+1) || st.ResidentBytes != 300 || st.Entries != 3 {
			t.Errorf("after inserting %q: stats = %+v", step.insert, st)
		}
	}
	for _, key := range []string{"d", "e", "f"} {
		if missing(key) {
			t.Errorf("%q is not resident", key)
		}
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
