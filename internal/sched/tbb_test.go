package sched

import (
	"sync/atomic"
	"testing"
)

func TestRangeSplit(t *testing.T) {
	r := Range{0, 100, 10}
	if !r.IsDivisible() {
		t.Fatal("range of 100 with grain 10 not divisible")
	}
	l, rr := r.Split()
	if l.Hi != rr.Lo || l.Lo != 0 || rr.Hi != 100 {
		t.Errorf("split = %+v, %+v", l, rr)
	}
	small := Range{0, 10, 10}
	if small.IsDivisible() {
		t.Error("range at grain still divisible")
	}
	if (Range{0, 5, 0}).grain() != 1 {
		t.Error("default grain != 1")
	}
}

func TestParallelForRangeAllPartitioners(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, part := range []Partitioner{SimplePartitioner, AutoPartitioner, AffinityPartitioner} {
		part := part
		t.Run(part.String(), func(t *testing.T) {
			var aff AffinityState
			coverageCheck(t, 997, func(mark func(int)) {
				check(t, ParallelForRangeCtx(nil, pool, Range{0, 997, 8}, part, &aff, func(lo, hi int, c *Ctx) {
					for i := lo; i < hi; i++ {
						mark(i)
					}
				}))
			})
		})
	}
}

func TestParallelForRangeEmpty(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	called := int32(0)
	check(t, ParallelForRangeCtx(nil, pool, Range{5, 5, 1}, SimplePartitioner, nil, func(lo, hi int, c *Ctx) {
		atomic.AddInt32(&called, 1)
	}))
	if called != 0 {
		t.Error("body called for empty range")
	}
}

func TestAffinityReplayCoverage(t *testing.T) {
	// Re-running the same loop with the same AffinityState must stay correct
	// and reuse the same block decomposition.
	pool := NewPool(4)
	defer pool.Close()
	var aff AffinityState
	for round := 0; round < 5; round++ {
		coverageCheck(t, 503, func(mark func(int)) {
			check(t, ParallelForRangeCtx(nil, pool, Range{0, 503, 4}, AffinityPartitioner, &aff, func(lo, hi int, c *Ctx) {
				for i := lo; i < hi; i++ {
					mark(i)
				}
			}))
		})
	}
	if len(aff.blocks) == 0 || len(aff.blocks) > 16 {
		t.Errorf("affinity produced %d blocks, want 1..16 (4*workers)", len(aff.blocks))
	}
}

// TestAffinityMovedRange: the cached block decomposition is keyed on the
// range's size, so it must hold offsets, not absolute indices — a range of
// the same size at another Lo visits its own indices.
func TestAffinityMovedRange(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var aff AffinityState
	coverageCheck(t, 200, func(mark func(int)) {
		for _, lo := range []int{0, 100} {
			check(t, ParallelForRangeCtx(nil, pool, Range{lo, lo + 100, 4}, AffinityPartitioner, &aff, func(lo, hi int, c *Ctx) {
				for i := lo; i < hi; i++ {
					mark(i)
				}
			}))
		}
	})
}

func TestAffinityPanicsWithoutState(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("AffinityPartitioner without state did not panic")
		}
	}()
	check(t, ParallelForRangeCtx(nil, pool, Range{0, 10, 1}, AffinityPartitioner, nil, func(lo, hi int, c *Ctx) {}))
}

func TestPartitionerString(t *testing.T) {
	if SimplePartitioner.String() != "simple" || AutoPartitioner.String() != "auto" || AffinityPartitioner.String() != "affinity" {
		t.Error("partitioner names wrong")
	}
}
