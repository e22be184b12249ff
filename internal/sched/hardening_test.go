package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// settleGoroutines polls until the goroutine count drops back to at most
// want (runtime workers park asynchronously after Close).
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), want)
}

func TestTeamForEBodyPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	team := NewTeam(4)
	err := team.ForE(1000, ForOptions{Policy: Dynamic, Chunk: 10}, func(lo, hi, w int) {
		if lo >= 500 {
			panic("boom at " + fmt.Sprint(lo))
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ForE returned %v, want *PanicError", err)
	}
	if s, ok := pe.Value.(string); !ok || !strings.HasPrefix(s, "boom at ") {
		t.Errorf("panic value %v not preserved", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "hardening_test") {
		t.Errorf("PanicError carries no originating stack:\n%s", pe.Stack)
	}
	if pe.Worker < 0 || pe.Worker >= 4 {
		t.Errorf("worker id %d out of range", pe.Worker)
	}
	// The team must survive a panic and stay usable.
	var n atomic.Int64
	if err := team.ForE(100, ForOptions{}, func(lo, hi, w int) { n.Add(int64(hi - lo)) }); err != nil {
		t.Fatalf("team unusable after panic: %v", err)
	}
	if n.Load() != 100 {
		t.Errorf("post-panic loop covered %d/100 iterations", n.Load())
	}
	team.Close()
	settleGoroutines(t, before)
}

func TestTeamForCtxCancelMidLoop(t *testing.T) {
	before := runtime.NumGoroutine()
	team := NewTeam(4)
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	err := team.ForCtx(ctx, 100000, ForOptions{Policy: Dynamic, Chunk: 1}, func(lo, hi, w int) {
		if executed.Add(1) == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Cancellation at chunk-claim boundaries: already-claimed chunks may
	// finish, but the bulk of the loop must have been skipped.
	if n := executed.Load(); n >= 100000 {
		t.Errorf("loop ran to completion (%d chunks) despite cancellation", n)
	}
	team.Close()
	settleGoroutines(t, before)
}

func TestTeamPanicBeatsCancellation(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	ctx, cancel := context.WithCancel(context.Background())
	err := team.ForCtx(ctx, 100, ForOptions{}, func(lo, hi, w int) {
		cancel()
		panic("both fail modes at once")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want the panic to win over ctx.Err()", err)
	}
}

func TestPoolRunCtxPanicInSpawnedTree(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(4)
	err := pool.RunCtx(nil, func(c *Ctx) {
		for i := 0; i < 16; i++ {
			i := i
			c.Spawn(func(cc *Ctx) {
				if i == 11 {
					panic(fmt.Errorf("spawned task %d failed", i))
				}
			})
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunCtx returned %v, want *PanicError", err)
	}
	var inner error
	if inner, _ = pe.Value.(error); inner == nil || inner.Error() != "spawned task 11 failed" {
		t.Errorf("panic value %v not preserved", pe.Value)
	}
	// Unwrap must expose the inner error to errors.Is/As through PanicError.
	if !strings.Contains(err.Error(), "spawned task 11 failed") {
		t.Errorf("error text lost the cause: %v", err)
	}
	// Pool stays usable after a contained panic.
	var n atomic.Int64
	if err := pool.ParallelForE(100, 1, func(lo, hi int, c *Ctx) { n.Add(int64(hi - lo)) }); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
	if n.Load() != 100 {
		t.Errorf("post-panic loop covered %d/100", n.Load())
	}
	pool.Close()
	settleGoroutines(t, before)
}

func TestPoolRunCtxCancelSkipsTasks(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := pool.RunCtx(ctx, func(c *Ctx) {
		cancel() // cancelled before any child is spawned
		for i := 0; i < 1000; i++ {
			c.Spawn(func(cc *Ctx) { ran.Add(1) })
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d spawned tasks ran after cancellation", ran.Load())
	}
}

// TestPoolRunCtxOnClosedPool is TestTeamLoopOnClosedTeam's twin: Close
// dismisses the helpers whatever they were doing — never used, still spinning
// after a run, long parked — leaves no goroutine behind, may be repeated, and
// every way of starting a run afterwards reports ErrClosed instead of
// waiting for helpers that have left.
func TestPoolRunCtxOnClosedPool(t *testing.T) {
	body := func(lo, hi int, c *Ctx) {}
	for _, tc := range []struct {
		name string
		idle time.Duration // after one run; negative = no run at all
	}{{"fresh", -1}, {"spinning", 0}, {"parked", 4 * spinBudget}} {
		before := runtime.NumGoroutine()
		pool := NewPool(4)
		if tc.idle >= 0 {
			check(t, pool.ParallelForCtx(nil, 64, 1, body))
			time.Sleep(tc.idle)
		}
		pool.Close()
		pool.Close()
		settleGoroutines(t, before)

		var cilk, tbb Loop
		cilk.OnCilk(pool, 1)
		tbb.OnTBB(pool, AutoPartitioner, 1)
		runs := map[string]error{
			"RunCtx":         pool.RunCtx(context.Background(), func(*Ctx) {}),
			"ParallelForCtx": pool.ParallelForCtx(nil, 64, 1, body),
			"ParallelForE":   pool.ParallelForE(64, 1, body),
			"cilk Loop.Run":  cilk.Run(nil, 64, func(lo, hi, w int) {}),
			"tbb Loop.Run":   tbb.Run(nil, 64, func(lo, hi, w int) {}),
		}
		for _, part := range []Partitioner{SimplePartitioner, AutoPartitioner, AffinityPartitioner} {
			runs["ParallelForRangeCtx/"+part.String()] = ParallelForRangeCtx(nil, pool, Range{0, 64, 1}, part, new(AffinityState), body)
		}
		for how, err := range runs {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s: %s on a closed pool: %v, want ErrClosed", tc.name, how, err)
			}
		}
	}
}

func TestTeamInjectHookPanicsAreContained(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	var calls atomic.Int64
	team.SetInject(func(site string, worker int) {
		if site != "team/chunk" {
			t.Errorf("unexpected site %q", site)
		}
		if calls.Add(1) == 5 {
			panic("injected")
		}
	})
	err := team.ForE(1000, ForOptions{Policy: Dynamic, Chunk: 10}, func(lo, hi, w int) {})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "injected" {
		t.Fatalf("injected hook panic not surfaced: %v", err)
	}
	team.SetInject(nil)
}
