package graph

import (
	"testing"
	"testing/quick"
)

func isPermutation(p []int32) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || int(v) >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestOrderingsArePermutations(t *testing.T) {
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%120) + 1
		m := int(mRaw % 500)
		g := randomGraph(seed, n, m)
		return isPermutation(RCMOrder(g))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	// A shuffled grid has terrible bandwidth; RCM must restore most of it.
	grid := gridGraph(40, 40)
	shuffled := grid.Shuffled(7)
	before := shuffled.Bandwidth()
	reordered, err := shuffled.Permute(RCMOrder(shuffled))
	if err != nil {
		t.Fatal(err)
	}
	after := reordered.Bandwidth()
	if after >= before/4 {
		t.Errorf("RCM bandwidth %d, want < 1/4 of shuffled %d", after, before)
	}
	if err := reordered.Validate(); err != nil {
		t.Fatal(err)
	}
}

func gridGraph(w, h int) *Graph {
	b := NewBuilder(w * h)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return b.Build()
}

func TestBandwidth(t *testing.T) {
	if bw := path(5).Bandwidth(); bw != 1 {
		t.Errorf("path bandwidth = %d, want 1", bw)
	}
	b := NewBuilder(10)
	b.AddEdge(0, 9)
	if bw := b.Build().Bandwidth(); bw != 9 {
		t.Errorf("long edge bandwidth = %d, want 9", bw)
	}
	var empty Graph
	if empty.Bandwidth() != 0 {
		t.Error("empty graph bandwidth != 0")
	}
}

func TestPseudoPeripheralOnPath(t *testing.T) {
	g := path(50)
	pp := pseudoPeripheral(g, 25)
	if pp != 0 && pp != 49 {
		t.Errorf("pseudo-peripheral of a path = %d, want an endpoint", pp)
	}
}

func TestReorderDisconnected(t *testing.T) {
	b := NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(5, 6) // two components + isolated vertices
	g := b.Build()
	perm := RCMOrder(g)
	if !isPermutation(perm) {
		t.Error("RCM: not a permutation on disconnected input")
	}
	if _, err := g.Permute(perm); err != nil {
		t.Errorf("RCM: %v", err)
	}
}

// TestRCMOrderAllocs holds RCMOrder to its four arrays and the two of each of
// pseudoPeripheral's breadth-first sweeps, at most eight a component: the
// frontiers are sorted in the reused scratch, with nothing allocated a vertex.
func TestRCMOrderAllocs(t *testing.T) {
	g := gridGraph(100, 100).Shuffled(1) // one component
	const ceiling = 4 + 2*8
	if got := testing.AllocsPerRun(3, func() { RCMOrder(g) }); got > ceiling {
		t.Errorf("RCMOrder of a shuffled 100×100 grid: %.1f allocations, want at most %d", got, ceiling)
	}
}
