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

// TestPoolRunCtxPanicInSpawnedTree: a panic in one leaf of a cilk_for's split
// tree comes back with its value and stack, the rest of the tree drains, and
// the pool stays usable.
func TestPoolRunCtxPanicInSpawnedTree(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(4)
	err := pool.ParallelForCtx(nil, 16, 1, func(lo, hi int, c *Ctx) {
		if lo == 11 {
			panic(fmt.Errorf("leaf %d failed", lo))
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ParallelForCtx returned %v, want *PanicError", err)
	}
	var inner error
	if inner, _ = pe.Value.(error); inner == nil || inner.Error() != "leaf 11 failed" {
		t.Errorf("panic value %v not preserved", pe.Value)
	}
	// Unwrap must expose the inner error to errors.Is/As through PanicError.
	if !strings.Contains(err.Error(), "leaf 11 failed") {
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

// poolRun is one kind of task run over a fixed range.
type poolRun struct {
	name string
	run  func(ctx context.Context, pool *Pool, body func(lo, hi int, c *Ctx)) error
}

// poolRuns lists every kind of task run over [0, n) at grain 1: cilk_for and
// the three partitioners, each affinity run replaying one block map.
func poolRuns(n int) []poolRun {
	runs := []poolRun{{"cilk_for", func(ctx context.Context, pool *Pool, body func(lo, hi int, c *Ctx)) error {
		return pool.ParallelForCtx(ctx, n, 1, body)
	}}}
	aff := new(AffinityState)
	for _, part := range []Partitioner{SimplePartitioner, AutoPartitioner, AffinityPartitioner} {
		runs = append(runs, poolRun{"tbb-" + part.String(), func(ctx context.Context, pool *Pool, body func(lo, hi int, c *Ctx)) error {
			return ParallelForRangeCtx(ctx, pool, Range{0, n, 1}, part, aff, body)
		}})
	}
	return runs
}

// TestPoolRunCtxCancelSkipsTasks: a run cancelled at its root's task
// boundary, before anything was split off, runs no body and returns
// context.Canceled, on every kind of run.
func TestPoolRunCtxCancelSkipsTasks(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var ran atomic.Int64
	for _, r := range poolRuns(1000) {
		ctx, cancel := context.WithCancel(context.Background())
		pool.SetInject(func(string, int) { cancel() })
		err := r.run(ctx, pool, func(lo, hi int, c *Ctx) { ran.Add(1) })
		pool.SetInject(nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", r.name, err)
		}
		if ran.Load() != 0 {
			t.Errorf("%s: %d leaves ran after cancellation", r.name, ran.Load())
		}
	}
}

// TestPoolIterationAccounting: a run ends when the ranges its tasks kept add
// up to n, whether each task ran its range, skipped it because the run had
// failed or been cancelled, or panicked in it. On every kind of run at grain
// 1, where split trees are as deep as n allows, and at 1–4 workers, a run that
// panics in one leaf, is cancelled from inside one or meets an injected
// pool/task fault returns its own error within a deadline, and the next run on
// the same engine covers every index exactly once. A run that counted only
// the ranges that ran would never end; the deadline makes that a failure
// instead of a hang.
func TestPoolIterationAccounting(t *testing.T) {
	const n, deadline = 4096, 10 * time.Second
	errInjected := errors.New("injected pool/task fault")
	for _, w := range []int{1, 2, 3, 4} {
		before := runtime.NumGoroutine()
		pool := NewPool(w)
		for _, r := range poolRuns(n) {
			for _, mode := range []string{"panic", "cancel", "fault", "ok"} {
				name := fmt.Sprintf("W=%d %s %s", w, r.name, mode)
				ctx, cancel := context.WithCancel(context.Background())
				body := func(lo, hi int, c *Ctx) {}
				switch mode {
				case "panic":
					body = func(lo, hi int, c *Ctx) {
						if lo <= n/2 && n/2 < hi {
							panic(name)
						}
					}
				case "cancel":
					body = func(lo, hi int, c *Ctx) {
						if lo <= n/2 && n/2 < hi {
							cancel()
						}
					}
				case "fault":
					var calls atomic.Int64
					pool.SetInject(func(site string, _ int) {
						if site == "pool/task" && calls.Add(1) == 2 {
							panic(errInjected)
						}
					})
				}
				returned := make(chan error, 1)
				go func() { returned <- r.run(ctx, pool, body) }()
				var err error
				select {
				case err = <-returned:
				case <-time.After(deadline):
					t.Fatalf("%s: the run had not returned after %v", name, deadline)
				}
				pool.SetInject(nil)
				cancel()
				var pe *PanicError
				switch {
				case mode == "panic" && !(errors.As(err, &pe) && pe.Value == name),
					mode == "cancel" && (!errors.Is(err, context.Canceled) || errors.As(err, &pe)),
					mode == "fault" && !errors.Is(err, errInjected),
					mode == "ok" && err != nil:
					t.Fatalf("%s: got %v", name, err)
				}
				coverageCheck(t, n, func(mark func(int)) {
					check(t, r.run(nil, pool, func(lo, hi int, c *Ctx) {
						for i := lo; i < hi; i++ {
							mark(i)
						}
					}))
				})
			}
		}
		pool.Close()
		settleGoroutines(t, before)
	}
}

// TestPoolRunOnClosedPool is TestTeamLoopOnClosedTeam's twin: Close
// dismisses the helpers whatever they were doing — never used, still spinning
// after a run, long parked — leaves no goroutine behind, may be repeated, and
// every way of starting a run afterwards reports ErrClosed instead of
// waiting for helpers that have left, an empty run included.
func TestPoolRunOnClosedPool(t *testing.T) {
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

		for _, n := range []int{0, 64} {
			runs := map[string]error{
				"ParallelForCtx": pool.ParallelForCtx(nil, n, 1, body),
				"ParallelForE":   pool.ParallelForE(n, 1, body),
			}
			for _, part := range []Partitioner{SimplePartitioner, AutoPartitioner, AffinityPartitioner} {
				runs["ParallelForRangeCtx/"+part.String()] = ParallelForRangeCtx(nil, pool, Range{0, n, 1}, part, new(AffinityState), body)
			}
			var l Loop
			for _, b := range loopBindings(pool, pool) {
				b.bind(&l)
				runs[b.name+" Loop.Run"] = l.Run(nil, n, func(lo, hi, w int) {})
			}
			for how, err := range runs {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("%s: %s of %d iterations on a closed pool: %v, want ErrClosed", tc.name, how, n, err)
				}
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
