package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the public-domain splitmix64 reference
	// implementation with seed 0.
	sm := NewSplitMix64(0)
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
		0xF88BB8A8724C81EC,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Errorf("SplitMix64(0) value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with the same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("generators with different seeds agree on %d of 1000 outputs", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwoAndGeneral(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
		if v := r.Uint64n(10); v >= 10 {
			t.Fatalf("Uint64n(10) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of %d uniform samples = %v, want ~0.5", n, mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	property := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(property, nil); err != nil {
		t.Error(err)
	}
}

func TestPermUniformish(t *testing.T) {
	// Chi-squared-ish sanity check: element 0 should land in each of the 4
	// positions of Perm(4) roughly equally often.
	counts := [4]int{}
	for seed := uint64(0); seed < 4000; seed++ {
		p := New(seed).Perm(4)
		for pos, v := range p {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("element 0 at position %d in %d/4000 permutations, want ~1000", pos, c)
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(99)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Errorf("shuffle changed the multiset: sum %d -> %d", sum, got)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= r.Intn(1000003)
	}
	_ = sink
}

func TestFillMatchesUint64(t *testing.T) {
	a, b := New(5), New(5)
	for _, n := range []int{0, 1, 7, 1000} {
		got := make([]uint64, n)
		a.Fill(got)
		for i, g := range got {
			if want := b.Uint64(); g != want {
				t.Fatalf("Fill(%d) word %d = %#x, Uint64 gives %#x", n, i, g, want)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Error("Fill left the generator in a different state than the Uint64 calls")
	}
}
