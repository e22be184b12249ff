package sched

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"micgraph/internal/telemetry"
)

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

// TestSimplePartitionerIsCilkFor pins that cilk_for and the TBB simple
// partitioner are one split: on one worker the two drivers visit the same
// (lo, hi) leaves in the same order, and on four they cover [0, n) exactly
// once in equally many range splits.
func TestSimplePartitionerIsCilkFor(t *testing.T) {
	const n, grain = 997, 8
	drivers := []func(pool *Pool, body func(lo, hi int, c *Ctx)) error{
		func(pool *Pool, body func(lo, hi int, c *Ctx)) error {
			return pool.ParallelForCtx(nil, n, grain, body)
		},
		func(pool *Pool, body func(lo, hi int, c *Ctx)) error {
			return ParallelForRangeCtx(nil, pool, Range{0, n, grain}, SimplePartitioner, nil, body)
		},
	}

	one := NewPool(1)
	defer one.Close()
	var leaves [2][][2]int
	for d, drive := range drivers {
		check(t, drive(one, func(lo, hi int, _ *Ctx) { leaves[d] = append(leaves[d], [2]int{lo, hi}) }))
	}
	if len(leaves[0]) == 0 || !slices.Equal(leaves[0], leaves[1]) {
		t.Errorf("one worker: cilk_for ran leaves %v, the simple partitioner %v", leaves[0], leaves[1])
	}

	four := NewPool(4)
	defer four.Close()
	counters := telemetry.NewCounters(4)
	four.SetCounters(counters)
	var splits [2]int64
	for d, drive := range drivers {
		before := counters.Total(telemetry.RangeSplits)
		coverageCheck(t, n, func(mark func(int)) {
			check(t, drive(four, func(lo, hi int, _ *Ctx) {
				for i := lo; i < hi; i++ {
					mark(i)
				}
			}))
		})
		splits[d] = counters.Total(telemetry.RangeSplits) - before
	}
	if splits[0] == 0 || splits[0] != splits[1] {
		t.Errorf("four workers: cilk_for split %d times, the simple partitioner %d", splits[0], splits[1])
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
	if len(aff.homes) == 0 || len(aff.homes) > 16 {
		t.Errorf("affinity produced %d blocks, want 1..16 (4*workers)", len(aff.homes))
	}
}

// TestPartitionerGrain: no partitioner hands the body pieces finer than the
// grain allows. Simple halves while a piece exceeds the grain; auto and
// affinity seed at most ceil(size/grain) pieces (capped at W and 4W), so
// where their seeds are final — auto's are at most the grain, and affinity
// never splits — all three cut a range alike. The cases are those where
// every listed partitioner's pieces do not depend on who steals what.
func TestPartitionerGrain(t *testing.T) {
	const workers = 4
	pool := NewPool(workers)
	defer pool.Close()
	cases := []struct {
		r    Range
		want map[Partitioner][]int // sorted piece sizes
	}{
		{Range{0, 10, 8}, map[Partitioner][]int{
			SimplePartitioner: {5, 5}, AutoPartitioner: {5, 5}, AffinityPartitioner: {5, 5}}},
		{Range{0, 1000, 300}, map[Partitioner][]int{
			SimplePartitioner:   {250, 250, 250, 250},
			AutoPartitioner:     {250, 250, 250, 250},
			AffinityPartitioner: {250, 250, 250, 250}}},
		{Range{7, 107, 50}, map[Partitioner][]int{
			SimplePartitioner: {50, 50}, AutoPartitioner: {50, 50}, AffinityPartitioner: {50, 50}}},
		{Range{0, 3, 0}, map[Partitioner][]int{ // grain <= 0 means 1
			SimplePartitioner: {1, 1, 1}, AutoPartitioner: {1, 1, 1}, AffinityPartitioner: {1, 1, 1}}},
		// 4W blocks cap affinity; simple halves on to the grain.
		{Range{0, 160, 5}, map[Partitioner][]int{
			SimplePartitioner:   repeat(5, 32),
			AffinityPartitioner: repeat(10, 16)}},
	}
	for _, tc := range cases {
		for _, part := range []Partitioner{SimplePartitioner, AutoPartitioner, AffinityPartitioner} {
			want, ok := tc.want[part]
			if !ok {
				continue
			}
			var mu sync.Mutex
			var got []int
			check(t, ParallelForRangeCtx(nil, pool, tc.r, part, new(AffinityState), func(lo, hi int, _ *Ctx) {
				mu.Lock()
				got = append(got, hi-lo)
				mu.Unlock()
			}))
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%+v under %s: pieces %v, want %v", tc.r, part, got, want)
			}
		}
	}
}

// repeat returns n copies of v.
func repeat(v, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
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
