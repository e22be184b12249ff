package sched

import (
	"fmt"
	"math"
	"strings"
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

func TestPoolWorkerIDs(t *testing.T) {
	pool := NewPool(5)
	defer pool.Close()
	check(t, pool.ParallelForCtx(nil, 1000, 1, func(lo, hi int, c *Ctx) {
		if c.Worker() < 0 || c.Worker() >= 5 {
			t.Errorf("worker id %d out of range", c.Worker())
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

// TestRunTooLargePanics: a task word holds offsets of 32 bits, so a run of
// more iterations is refused before any work starts, naming its size, and the
// engine stays usable.
func TestRunTooLargePanics(t *testing.T) {
	if math.MaxInt <= math.MaxUint32 {
		t.Skip("int cannot hold a run of 2^32 iterations")
	}
	pool := NewPool(2)
	defer pool.Close()
	big := uint64(math.MaxUint32) + 1
	func() {
		defer func() {
			if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), fmt.Sprint(big)) {
				t.Errorf("a run of %d iterations panicked with %v, want a panic naming its size", big, v)
			}
		}()
		pool.ParallelForCtx(nil, int(big), 1<<20, func(lo, hi int, c *Ctx) {
			t.Error("a refused run ran its body")
		})
	}()
	coverageCheck(t, 100, func(mark func(int)) {
		check(t, pool.ParallelForCtx(nil, 100, 1, func(lo, hi int, c *Ctx) {
			for i := lo; i < hi; i++ {
				mark(i)
			}
		}))
	})
}

// TestDequeOrder: the owner pops the newest word, a thief steals the oldest.
func TestDequeOrder(t *testing.T) {
	var d deque
	d.pushBottom(1)
	d.pushBottom(2)
	d.pushBottom(3)
	if w, ok := d.stealTop(); !ok || w != 1 {
		t.Fatalf("stealTop = %d, %v; want 1, true", w, ok)
	}
	if w, ok := d.popBottom(); !ok || w != 3 {
		t.Fatalf("popBottom = %d, %v; want 3, true", w, ok)
	}
	if w, ok := d.popBottom(); !ok || w != 2 {
		t.Fatalf("popBottom = %d, %v; want 2, true", w, ok)
	}
	if _, ok := d.popBottom(); ok {
		t.Error("popBottom on empty deque succeeded")
	}
	if _, ok := d.stealTop(); ok {
		t.Error("stealTop on empty deque succeeded")
	}
}
