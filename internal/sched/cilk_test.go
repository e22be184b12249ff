package sched

import (
	"sync/atomic"
	"testing"
)

func TestPoolParallelForCoverage(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, grain := range []int{0, 1, 13, 1000, 100000} {
		grain := grain
		coverageCheck(t, 1000, func(mark func(int)) {
			check(t, pool.ParallelForCtx(nil, 1000, grain, func(lo, hi int, c *Ctx) {
				for i := lo; i < hi; i++ {
					mark(i)
				}
			}))
		})
	}
}

func TestPoolSpawnSync(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var after atomic.Bool
	var children atomic.Int32
	check(t, pool.RunCtx(nil, func(c *Ctx) {
		for i := 0; i < 20; i++ {
			c.Spawn(func(cc *Ctx) {
				children.Add(1)
			})
		}
		c.Sync()
		if children.Load() != 20 {
			t.Errorf("after Sync only %d of 20 children ran", children.Load())
		}
		after.Store(true)
	}))
	if !after.Load() {
		t.Fatal("Run returned before root completed")
	}
}

// fib computes Fibonacci with spawn/sync, the canonical Cilk recursion.
func fib(c *Ctx, n int) int {
	if n < 2 {
		return n
	}
	var a int
	c.Spawn(func(cc *Ctx) { a = fib(cc, n-1) })
	b := fib(c, n-2)
	c.Sync()
	return a + b
}

func TestPoolFib(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	var got int
	check(t, pool.RunCtx(nil, func(c *Ctx) { got = fib(c, 15) }))
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestPoolImplicitSync(t *testing.T) {
	// Children spawned but never explicitly synced must still complete
	// before Run returns (Cilk's implicit sync at function exit).
	pool := NewPool(4)
	defer pool.Close()
	var ran atomic.Int32
	check(t, pool.RunCtx(nil, func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.Spawn(func(cc *Ctx) {
				cc.Spawn(func(*Ctx) { ran.Add(1) })
			})
		}
	}))
	if ran.Load() != 50 {
		t.Errorf("%d of 50 grandchildren ran before Run returned", ran.Load())
	}
}

func TestPoolWorkerIDs(t *testing.T) {
	pool := NewPool(5)
	defer pool.Close()
	check(t, pool.RunCtx(nil, func(c *Ctx) {
		if c.Worker() < 0 || c.Worker() >= 5 {
			t.Errorf("worker id %d out of range", c.Worker())
		}
		if c.Pool() != pool {
			t.Error("Ctx.Pool mismatch")
		}
	}))
}

func TestPoolSingleWorker(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	coverageCheck(t, 500, func(mark func(int)) {
		check(t, pool.ParallelForCtx(nil, 500, 7, func(lo, hi int, c *Ctx) {
			for i := lo; i < hi; i++ {
				mark(i)
			}
		}))
	})
}

func TestPoolSequentialRuns(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for round := 0; round < 10; round++ {
		var count atomic.Int32
		check(t, pool.ParallelForCtx(nil, 100, 5, func(lo, hi int, c *Ctx) {
			count.Add(int32(hi - lo))
		}))
		if count.Load() != 100 {
			t.Fatalf("round %d: covered %d of 100", round, count.Load())
		}
	}
}

func TestDefaultGrain(t *testing.T) {
	if g := DefaultGrain(0, 4); g != 1 {
		t.Errorf("DefaultGrain(0,4) = %d, want 1", g)
	}
	if g := DefaultGrain(1<<20, 1); g != 2048 {
		t.Errorf("DefaultGrain(1M,1) = %d, want 2048 (cap)", g)
	}
	if g := DefaultGrain(64, 8); g != 1 {
		t.Errorf("DefaultGrain(64,8) = %d, want 1", g)
	}
}

func TestNewPoolPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}

func TestDequeOrder(t *testing.T) {
	var d deque
	mk := func(id int) task { return task{fn: func(*Ctx) { _ = id }} }
	d.pushBottom(mk(1))
	d.pushBottom(mk(2))
	d.pushBottom(mk(3))
	if _, ok := d.stealTop(); !ok {
		t.Fatal("stealTop failed")
	}
	if _, ok := d.popBottom(); !ok {
		t.Fatal("popBottom failed")
	}
	if _, ok := d.popBottom(); !ok {
		t.Fatal("no task left after one steal and one pop of three")
	}
	if _, ok := d.popBottom(); ok {
		t.Error("popBottom on empty deque succeeded")
	}
	if _, ok := d.stealTop(); ok {
		t.Error("stealTop on empty deque succeeded")
	}
}
