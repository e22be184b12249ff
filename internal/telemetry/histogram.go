package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// The serving layer aggregates per-job latency spans into fixed-bucket
// log-scale histograms: every Histogram in the process shares one
// deterministic bucket layout, so snapshots taken on different machines,
// by different processes (micserved's /metricsz and micload's client-side
// observations), compare bucket-for-bucket without any resolution
// negotiation.
//
// Layout: 4 sub-buckets per octave (ratio 2^(1/4)-ish, linear within the
// octave), starting at 1µs and ending past an hour. Bucket i counts
// observations v with bounds[i-1] < v <= bounds[i] ("le" semantics, like
// Prometheus); everything at or below the first bound lands in bucket 0
// and everything above the last bound in the overflow bucket. All bounds
// are exact integers (multiples of 250ns shifted up per octave), so bucket
// membership is bit-deterministic and testable at the boundaries.
const (
	histSubBuckets = 4
	histOctaves    = 32
	histNumBounds  = histSubBuckets * histOctaves

	// OverflowLeNS is the synthetic "le" key of the overflow bucket in
	// snapshots: no finite observation exceeds it.
	OverflowLeNS = math.MaxInt64
)

// histBounds holds the shared upper bounds in nanoseconds, ascending.
// bound(o, m) = (250 << o) * (4+m) for octave o and sub-bucket m, i.e.
// 1000, 1250, 1500, 1750, 2000, 2500, ... up to ~62min.
var histBounds = func() [histNumBounds]int64 {
	var b [histNumBounds]int64
	for o := 0; o < histOctaves; o++ {
		base := int64(250) << uint(o)
		for m := 0; m < histSubBuckets; m++ {
			b[o*histSubBuckets+m] = base * int64(4+m)
		}
	}
	return b
}()

// bucketFor returns the bucket index of a (non-negative) duration in
// nanoseconds: the smallest i with ns <= histBounds[i], or histNumBounds
// (the overflow bucket) when ns exceeds every bound.
func bucketFor(ns int64) int {
	if ns <= histBounds[0] {
		return 0
	}
	if ns > histBounds[histNumBounds-1] {
		return histNumBounds
	}
	lo, hi := 1, histNumBounds-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ns <= histBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Histogram is a concurrency-safe fixed-bucket log-scale latency
// histogram. The record path is lock-free (one atomic add per counter
// touched) and allocation-free; a nil *Histogram is a valid no-op sink,
// so callers on the uninstrumented path pay only a nil check.
type Histogram struct {
	counts [histNumBounds + 1]atomic.Int64 // last = overflow
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations (possible under a
// misbehaving injected clock) clamp to zero. No-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(int64(d)) }

// ObserveNS records one duration given in nanoseconds.
func (h *Histogram) ObserveNS(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketFor(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// HistogramBucket is one non-empty bucket of a snapshot: Count
// observations at or below LeNS nanoseconds (and above the next-smaller
// shared bound). LeNS == OverflowLeNS marks the overflow bucket.
type HistogramBucket struct {
	LeNS  int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram, the JSON shape
// exported by /metricsz and consumed by micload. Buckets are sorted by
// LeNS ascending and carry per-bucket (not cumulative) counts.
// P50/P99/P999 are interpolated at snapshot time with Quantile.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	SumNS   int64             `json:"sum_ns"`
	P50NS   int64             `json:"p50_ns"`
	P99NS   int64             `json:"p99_ns"`
	P999NS  int64             `json:"p999_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the current contents. Individual loads are atomic; the
// snapshot as a whole is not (recording may race it), which is fine for
// its reporting purpose. A nil receiver yields a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), SumNS: h.sum.Load()}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{LeNS: leOf(i), Count: c})
		}
	}
	s.P50NS = s.Quantile(0.50)
	s.P99NS = s.Quantile(0.99)
	s.P999NS = s.Quantile(0.999)
	return s
}

// leOf returns the "le" key of bucket index i.
func leOf(i int) int64 {
	if i >= histNumBounds {
		return OverflowLeNS
	}
	return histBounds[i]
}

// lowerOf returns the exclusive lower bound of the bucket whose upper
// bound is le (0 for the first bucket; the last finite bound for the
// overflow bucket).
func lowerOf(le int64) int64 {
	if le == OverflowLeNS {
		return histBounds[histNumBounds-1]
	}
	i := bucketFor(le) // le is itself a bound, so this is its own index
	if i == 0 {
		return 0
	}
	return histBounds[i-1]
}

// Quantile returns the interpolated q-quantile (0 < q < 1) in
// nanoseconds: linear interpolation inside the bucket holding the target
// rank, the standard fixed-bucket estimate. Returns 0 for an empty
// snapshot; the overflow bucket reports the last finite bound (an
// underestimate, flagged by the bucket itself being present).
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if target <= next {
			if b.LeNS == OverflowLeNS {
				return histBounds[histNumBounds-1]
			}
			lower := lowerOf(b.LeNS)
			frac := (target - cum) / float64(b.Count)
			return lower + int64(frac*float64(b.LeNS-lower))
		}
		cum = next
	}
	// Unreachable for a well-formed snapshot; be defensive.
	if n := len(s.Buckets); n > 0 {
		if le := s.Buckets[n-1].LeNS; le != OverflowLeNS {
			return le
		}
	}
	return histBounds[histNumBounds-1]
}
