package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestBucketBoundaryExactness pins the le semantics at every shared bound:
// an observation exactly on a bound lands in that bound's bucket, one
// nanosecond more lands in the next.
func TestBucketBoundaryExactness(t *testing.T) {
	bounds := histBounds[:]
	if bounds[0] != 1000 {
		t.Fatalf("first bound = %d, want 1000 (1µs)", bounds[0])
	}
	for i, b := range bounds {
		if i > 0 && b <= bounds[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %d then %d", i, bounds[i-1], b)
		}
		if got := bucketFor(b); got != i {
			t.Errorf("bucketFor(%d) = %d, want %d (on-bound)", b, got, i)
		}
		if got := bucketFor(b + 1); got != i+1 {
			t.Errorf("bucketFor(%d) = %d, want %d (past-bound)", b+1, got, i+1)
		}
	}
	if got := bucketFor(0); got != 0 {
		t.Errorf("bucketFor(0) = %d, want 0", got)
	}
	if got := bucketFor(bounds[len(bounds)-1] + 1); got != histNumBounds {
		t.Errorf("past last bound should hit the overflow bucket, got %d", got)
	}
}

// TestObserveBoundary checks that recorded on-bound values come back out of
// the snapshot attributed to the exact bucket.
func TestObserveBoundary(t *testing.T) {
	h := NewHistogram()
	bounds := histBounds[:]
	h.ObserveNS(bounds[5])     // exactly on bound 5
	h.ObserveNS(bounds[5] + 1) // first value of bucket 6
	h.Observe(-time.Second)    // clamps to 0 -> bucket 0
	s := h.Snapshot()
	want := []HistogramBucket{
		{LeNS: bounds[0], Count: 1},
		{LeNS: bounds[5], Count: 1},
		{LeNS: bounds[6], Count: 1},
	}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.SumNS != bounds[5]+bounds[5]+1 {
		t.Fatalf("sum = %d, want %d", s.SumNS, bounds[5]+bounds[5]+1)
	}
}

// TestQuantileOracle compares the interpolated quantile against a sorted
// slice of the raw observations: the estimate must land inside the bucket
// that contains the true order statistic (the best any fixed-bucket
// histogram can promise).
func TestQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 17, 1000, 20000} {
		h := NewHistogram()
		vals := make([]int64, n)
		for i := range vals {
			ns := int64(math.Pow(10, 3+rng.Float64()*7))
			vals[i] = ns
			h.ObserveNS(ns)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			rank := int(q * float64(n))
			if float64(rank) < q*float64(n) {
				rank++
			}
			if rank < 1 {
				rank = 1
			}
			oracle := vals[rank-1]
			est := s.Quantile(q)
			bi := bucketFor(oracle)
			lo, hi := lowerOf(leOf(bi)), leOf(bi)
			if bi == histNumBounds {
				// Overflow: the estimate saturates at the last finite bound.
				lo, hi = histBounds[histNumBounds-1], histBounds[histNumBounds-1]
			}
			if est < lo || est > hi {
				t.Errorf("n=%d q=%v: estimate %d outside oracle bucket (%d, %d] (oracle=%d)",
					n, q, est, lo, hi, oracle)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
	h := NewHistogram()
	h.ObserveNS(500) // below the first bound
	s := h.Snapshot()
	if got := s.Quantile(0.5); got < 0 || got > 1000 {
		t.Errorf("single sub-bound observation: q50 = %d, want within [0, 1000]", got)
	}
	if s.P50NS != s.Quantile(0.5) || s.P99NS != s.Quantile(0.99) || s.P999NS != s.Quantile(0.999) {
		t.Error("snapshot percentile fields disagree with Quantile")
	}
}

// TestNilHistogram: a nil *Histogram is a valid no-op sink — the shape the
// serving path relies on when telemetry is off.
func TestNilHistogram(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveNS(42)
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatalf("nil snapshot = %+v, want zero", s)
	}
}

// TestObserveAllocFree guards the record path: zero allocations whether
// telemetry is on (live histogram) or off (nil sink).
func TestObserveAllocFree(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) }); n != 0 {
		t.Errorf("live Observe allocates %v per call, want 0", n)
	}
	var off *Histogram
	if n := testing.AllocsPerRun(1000, func() { off.Observe(3 * time.Millisecond) }); n != 0 {
		t.Errorf("nil Observe allocates %v per call, want 0", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNS(int64(i)*1337 + 1000)
	}
}

// BenchmarkHistogramObserveOff measures the record path with telemetry off
// (nil sink) — this is the cost every request pays when not instrumented,
// and it must stay allocation-free.
func BenchmarkHistogramObserveOff(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNS(int64(i)*1337 + 1000)
	}
}
