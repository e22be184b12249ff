package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Stress tests: hammer the runtimes with deep nesting, many sequential
// regions, simultaneous teams/pools, and worker counts far beyond
// GOMAXPROCS (the norm in this repository: the paper's thread axis is
// simulated, but the engines must stay correct at any width).

func TestTeamManyWorkersFewItems(t *testing.T) {
	team := NewTeam(64)
	defer team.Close()
	for round := 0; round < 20; round++ {
		var count atomic.Int64
		check(t, team.ForE(5, ForOptions{Policy: Dynamic, SerialBelow: -1}, func(lo, hi, w int) {
			count.Add(int64(hi - lo))
		}))
		if count.Load() != 5 {
			t.Fatalf("round %d: %d of 5 items", round, count.Load())
		}
	}
}

func TestManySimultaneousTeams(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			team := NewTeam(4)
			defer team.Close()
			var sum atomic.Int64
			check(t, team.ForE(1000, ForOptions{Policy: Guided, Chunk: 7}, func(lo, hi, w int) {
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
			}))
			if sum.Load() != 499500 {
				errs <- "wrong sum"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestManySimultaneousPools(t *testing.T) {
	var wg sync.WaitGroup
	var bad atomic.Int32
	for k := 0; k < 6; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := NewPool(3)
			defer pool.Close()
			var got int
			check(t, pool.RunCtx(nil, func(c *Ctx) { got = fib(c, 12) }))
			if got != 144 {
				bad.Add(1)
			}
		}()
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Errorf("%d pools computed fib wrong", bad.Load())
	}
}

func TestDeepNestedSpawns(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var leaves atomic.Int64
	var rec func(c *Ctx, depth int)
	rec = func(c *Ctx, depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		c.Spawn(func(cc *Ctx) { rec(cc, depth-1) })
		rec(c, depth-1)
		c.Sync()
	}
	check(t, pool.RunCtx(nil, func(c *Ctx) { rec(c, 12) }))
	if leaves.Load() != 1<<12 {
		t.Errorf("leaves = %d, want %d", leaves.Load(), 1<<12)
	}
}

func TestNestedParallelForInsideSpawn(t *testing.T) {
	// The paper highlights nested parallelism as Cilk's strength ("Cilk
	// allows to easily leverage nested parallelism").
	pool := NewPool(4)
	defer pool.Close()
	var total atomic.Int64
	check(t, pool.RunCtx(nil, func(c *Ctx) {
		for outer := 0; outer < 8; outer++ {
			c.Spawn(func(cc *Ctx) {
				cc.For(0, 100, 10, func(lo, hi int, _ *Ctx) {
					total.Add(int64(hi - lo))
				})
			})
		}
	}))
	if total.Load() != 800 {
		t.Errorf("nested loops covered %d of 800", total.Load())
	}
}

func TestPoolManyWorkers(t *testing.T) {
	pool := NewPool(96)
	defer pool.Close()
	coverageCheck(t, 10000, func(mark func(int)) {
		check(t, pool.ParallelForCtx(nil, 10000, 16, func(lo, hi int, c *Ctx) {
			for i := lo; i < hi; i++ {
				mark(i)
			}
		}))
	})
}

func TestTeamRepeatedLoops(t *testing.T) {
	// Reuse a team for thousands of tiny loops — the coloring and BFS
	// kernels' usage pattern (a loop or two per round/level).
	team := NewTeam(8)
	defer team.Close()
	var total atomic.Int64
	for i := 0; i < 2000; i++ {
		check(t, team.ForE(37, ForOptions{Policy: Dynamic, Chunk: 5, SerialBelow: -1}, func(lo, hi, w int) {
			total.Add(int64(hi - lo))
		}))
	}
	if total.Load() != 2000*37 {
		t.Fatalf("covered %d, want %d", total.Load(), 2000*37)
	}
}

// TestHolderIsolationBetweenWorkers pins what the kernels' per-worker
// arrays (the paper's holder views) rely on: a task's Worker() id names a
// slot no concurrently running task writes, so unsynchronised updates
// neither race (the -race job runs this) nor lose counts.
func TestHolderIsolationBetweenWorkers(t *testing.T) {
	pool := NewPool(6)
	defer pool.Close()
	views := make([]struct {
		n int
		_ [56]byte
	}, 6)
	check(t, pool.ParallelForCtx(nil, 6000, 10, func(lo, hi int, c *Ctx) {
		views[c.Worker()].n += hi - lo
	}))
	sum := 0
	for _, v := range views {
		sum += v.n
	}
	if sum != 6000 {
		t.Errorf("per-worker views sum to %d, want 6000", sum)
	}
}

func TestAffinityStateReuseAcrossSizes(t *testing.T) {
	// Changing the range size must rebuild the block map, not corrupt it, and
	// so must changing the grain where that changes the block count:
	// min(4W, ceil(n/grain)).
	pool := NewPool(4)
	defer pool.Close()
	var aff AffinityState
	for _, tc := range []struct{ n, grain, blocks int }{
		{100, 4, 16}, {50, 4, 13}, {200, 4, 16}, {100, 4, 16}, {1, 4, 1}, {100, 50, 2}, {100, 1, 16},
	} {
		coverageCheck(t, tc.n, func(mark func(int)) {
			check(t, ParallelForRangeCtx(nil, pool, Range{0, tc.n, tc.grain}, AffinityPartitioner, &aff, func(lo, hi int, c *Ctx) {
				for i := lo; i < hi; i++ {
					mark(i)
				}
			}))
		})
		if len(aff.homes) != tc.blocks {
			t.Errorf("n %d, grain %d: %d blocks, want %d", tc.n, tc.grain, len(aff.homes), tc.blocks)
		}
	}
}
