// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the graph generators and experiment drivers.
//
// The generators are seeded explicitly, never from the clock, so every
// experiment in this repository is reproducible bit-for-bit. SplitMix64 is
// used to expand a single seed into generator state; Xoshiro256** is the
// workhorse generator (fast, passes BigCrush, tiny state).
package xrand

import "math"

// SplitMix64 is a 64-bit generator with a single word of state. It is mainly
// used to seed Xoshiro, but is a perfectly usable generator on its own.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Rand is a Xoshiro256** generator.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed. It is small
// enough to inline, so a generator a caller keeps by value (*New(seed))
// costs no allocation.
func New(seed uint64) *Rand {
	r := new(Rand)
	r.seed(seed)
	return r
}

func (r *Rand) seed(seed uint64) {
	sm := NewSplitMix64(seed)
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// the only state Xoshiro cannot escape.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Fill sets p to the next len(p) values of the sequence, as that many calls
// of Uint64 would, holding the state in registers meanwhile: a third of the
// time a word for a caller that wants millions.
func (r *Rand) Fill(p []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range p {
		p[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to remove modulo bias.
	limit := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n) as a slice of the
// vertex-id type, generated with the inside-out Fisher-Yates shuffle.
func (r *Rand) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = int32(i)
	}
	return p
}

// Shuffle pseudo-randomly permutes the first n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
