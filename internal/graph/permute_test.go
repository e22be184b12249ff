package graph

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"micgraph/internal/xrand"
)

func TestPermuteIdentity(t *testing.T) {
	g := randomGraph(3, 40, 150)
	h, err := g.Permute(IdentityPermutation(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("identity permutation changed the graph")
	}
}

func TestPermuteRejectsInvalid(t *testing.T) {
	g := path(4)
	if _, err := g.Permute([]int32{0, 1, 2}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := g.Permute([]int32{0, 1, 2, 2}); err == nil {
		t.Error("repeated value accepted")
	}
	if _, err := g.Permute([]int32{0, 1, 2, 4}); err == nil {
		t.Error("out-of-range value accepted")
	}
}

func sortedDegrees(g *Graph) []int {
	degs := make([]int, g.NumVertices())
	for v := range degs {
		degs[v] = g.Degree(int32(v))
	}
	slices.Sort(degs)
	return degs
}

func TestPermutePreservesStructure(t *testing.T) {
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%60) + 2
		m := int(mRaw % 300)
		g := randomGraph(seed, n, m)
		h := g.Shuffled(seed + 1)
		if h.Validate() != nil {
			return false
		}
		if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
			return false
		}
		// Degree multiset must be preserved.
		return slices.Equal(sortedDegrees(g), sortedDegrees(h))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPermuteEdgeMapping(t *testing.T) {
	g := path(5)
	perm := []int32{4, 3, 2, 1, 0} // reversal
	h, err := g.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 5; v++ {
		for _, w := range g.Adj(v) {
			if !h.HasEdge(perm[v], perm[w]) {
				t.Errorf("edge (%d,%d) not mapped to (%d,%d)", v, w, perm[v], perm[w])
			}
		}
	}
}

func TestShuffledDeterministic(t *testing.T) {
	g := randomGraph(5, 50, 200)
	a := g.Shuffled(42)
	b := g.Shuffled(42)
	if !a.Equal(b) {
		t.Error("Shuffled not deterministic for equal seeds")
	}
	c := g.Shuffled(43)
	if a.Equal(c) && g.NumEdges() > 5 {
		t.Error("Shuffled identical for different seeds (suspicious)")
	}
}

func TestShuffledPreservesLevelCount(t *testing.T) {
	// BFS level structure from the mapped source must be isomorphic.
	g := path(30)
	perm := make([]int32, 30)
	for i := range perm {
		perm[i] = int32((i*7 + 3) % 30) // a fixed permutation
	}
	h, err := g.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	_, nlG := g.Levels(0)
	_, nlH := h.Levels(perm[0])
	if nlG != nlH {
		t.Errorf("level count changed under permutation: %d vs %d", nlG, nlH)
	}
}

// TestPermuteMatchesReference relabels the edge list and builds it with the
// sequential reference; Permute must return those arrays, on both sides of
// the inline cutoff and with more workers than the box has cores.
func TestPermuteMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for i, sz := range buildSizes {
		edges := messyEdges(uint64(100+i), sz.n, sz.m)
		perm := xrand.New(uint64(i)).Perm(sz.n)
		relabelled := make([]Edge, len(edges))
		for j, e := range edges {
			relabelled[j] = Edge{perm[e.U], perm[e.V]}
		}
		got, err := MustFromEdges(sz.n, edges).Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceBuild(sz.n, relabelled); !got.Equal(want) {
			t.Errorf("n=%d m=%d: Permute differs from the reference (%s vs %s)", sz.n, sz.m, got, want)
		}
	}
}
