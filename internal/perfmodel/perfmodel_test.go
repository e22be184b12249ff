package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLevelTimeRegimes(t *testing.T) {
	// Below one block: a single thread runs it in x time.
	if got := LevelTime(5, 8, 32); got != 5 {
		t.Errorf("LevelTime(5,8,32) = %d, want 5", got)
	}
	// Exactly t*b: one round of b.
	if got := LevelTime(256, 8, 32); got != 32 {
		t.Errorf("LevelTime(256,8,32) = %d, want 32", got)
	}
	// Just above t*b: two rounds.
	if got := LevelTime(257, 8, 32); got != 64 {
		t.Errorf("LevelTime(257,8,32) = %d, want 64", got)
	}
	// x == b boundary uses the parallel branch: ceil(b/(t·b))·b = b.
	if got := LevelTime(32, 4, 32); got != 32 {
		t.Errorf("LevelTime(32,4,32) = %d, want 32", got)
	}
	if got := LevelTime(0, 4, 32); got != 0 {
		t.Errorf("LevelTime(0) = %d, want 0", got)
	}
}

func TestLevelTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for t=0")
		}
	}()
	LevelTime(10, 0, 32)
}

func TestSpeedupSingleThreadNearOne(t *testing.T) {
	widths := []int64{1, 10, 100, 1000, 100, 10, 1}
	s := Speedup(widths, 1, 32)
	// With t=1, c(l) ≥ x_l (block rounding only), so speedup ≤ 1.
	if s > 1.0001 {
		t.Errorf("1-thread speedup %v > 1", s)
	}
	if s < 0.9 {
		t.Errorf("1-thread speedup %v unexpectedly low (rounding loss too high)", s)
	}
}

func TestSpeedupMonotoneInThreads(t *testing.T) {
	property := func(seed uint16) bool {
		widths := make([]int64, 20)
		x := int64(seed%100) + 1
		for i := range widths {
			widths[i] = (x*int64(i+3)*7919)%5000 + 1
		}
		prev := 0.0
		for _, th := range []int{1, 2, 4, 8, 16, 31, 62, 124} {
			s := Speedup(widths, th, 32)
			if s+1e-9 < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSpeedupBoundedByThreadsAndUpperBound(t *testing.T) {
	property := func(seed uint16, tRaw uint8) bool {
		th := int(tRaw%128) + 1
		widths := make([]int64, 30)
		for i := range widths {
			widths[i] = (int64(seed)*int64(i+1)*104729)%3000 + 1
		}
		s := Speedup(widths, th, 32)
		if s > float64(th)+1e-9 {
			return false // can't beat linear
		}
		return s <= UpperBound(widths, 32)+1e-9
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChainHasNoParallelism(t *testing.T) {
	// The paper's worst case: a long chain (every level width 1) can never
	// speed up.
	widths := make([]int64, 1000)
	for i := range widths {
		widths[i] = 1
	}
	for _, th := range []int{1, 16, 124} {
		if s := Speedup(widths, th, 32); math.Abs(s-1) > 1e-9 {
			t.Errorf("chain speedup at t=%d is %v, want 1", th, s)
		}
	}
	if ub := UpperBound(widths, 32); math.Abs(ub-1) > 1e-9 {
		t.Errorf("chain upper bound %v, want 1", ub)
	}
}

func TestWideProfileScalesLinearly(t *testing.T) {
	// One huge level: speedup ≈ t until rounding bites.
	widths := []int64{1 << 20}
	for _, th := range []int{2, 8, 32} {
		s := Speedup(widths, th, 32)
		if s < 0.95*float64(th) {
			t.Errorf("wide level speedup at t=%d is %v, want ≈%d", th, s, th)
		}
	}
}

func TestSlopeChange(t *testing.T) {
	// A profile whose widths hover around w saturates near w/b threads —
	// the pwtk "slope change at 13 threads" phenomenon. Construct widths of
	// ~416 = 13 blocks of 32: beyond 13 threads each level still costs one
	// round, so speedup stops growing.
	widths := make([]int64, 200)
	for i := range widths {
		widths[i] = 416
	}
	s13 := Speedup(widths, 13, 32)
	s31 := Speedup(widths, 31, 32)
	if s31-s13 > 0.01 {
		t.Errorf("speedup grew from %v to %v beyond the width/b saturation point", s13, s31)
	}
	if s13 < 12 {
		t.Errorf("speedup at 13 threads %v, want ≈13", s13)
	}
}

func TestEmptyProfile(t *testing.T) {
	if Speedup(nil, 4, 32) != 0 || UpperBound(nil, 32) != 0 {
		t.Error("empty profile should give zero speedup")
	}
}
