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

// checkPermute relabels g by perm under GOMAXPROCS 1, 2 and 8 and compares
// what Permute returns with the reference built from the relabelled arcs.
func checkPermute(t *testing.T, name string, g *Graph, perm []int32) {
	t.Helper()
	var relabelled []Edge
	for v := range g.NumVertices() {
		for _, w := range g.Adj(int32(v)) {
			relabelled = append(relabelled, Edge{perm[v], perm[w]})
		}
	}
	want := referenceBuild(g.NumVertices(), relabelled)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := g.Permute(perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("GOMAXPROCS=%d %s: Permute differs from the reference (%s vs %s)", procs, name, got, want)
		}
	}
}

// TestPermuteBlockShapes relabels the shapes Permute's blocks and workers have
// to get right, under GOMAXPROCS 1, 2 and 8, after checking that each is the
// shape it is named for.
func TestPermuteBlockShapes(t *testing.T) {
	// 150 000 vertices in blocks of 16 384, the last one short; a hub on every
	// vertex drawn, whose list alone outweighs a block's share of the arcs; and
	// the top quarter isolated, the last ids under the identity.
	const n = 150000
	edges := messyEdges(11, n, 4*edgeChunk)
	hub := edges[0].U
	for v := int32(0); v < n*3/4; v++ {
		edges = append(edges, Edge{hub, v})
	}
	g := MustFromEdges(n, edges)
	switch k, nb := blocksOf(n, g.NumArcs()); {
	case n%(1<<k) == 0 || nb < 3:
		t.Fatalf("%d vertices make %d blocks of %d: want at least 3, the last one short", n, nb, 1<<k)
	case int64(g.Degree(hub)) <= g.NumArcs()/int64(nb):
		t.Fatalf("the hub has %d arcs, no more than a block's share %d", g.Degree(hub), g.NumArcs()/int64(nb))
	case g.Degree(n-1) != 0:
		t.Fatalf("vertex %d is not isolated", n-1)
	}
	reversal := make([]int32, n)
	for v := range reversal {
		reversal[v] = int32(n - 1 - v)
	}
	checkPermute(t, "a hub, shuffled", g, xrand.New(3).Perm(n))
	checkPermute(t, "a hub, identity", g, IdentityPermutation(n))
	checkPermute(t, "a hub, reversal", g, reversal)

	// 20 000 vertices in three blocks, walked by more workers than that when
	// there are eight.
	g = randomGraph(12, 20000, 60000)
	if k, nb := blocksOf(20000, g.NumArcs()); nb != 3 || min(8, int(g.NumArcs())/edgeChunk) <= nb {
		t.Fatalf("20000 vertices and %d arcs make %d blocks of %d: want three and more workers", g.NumArcs(), nb, 1<<k)
	}
	checkPermute(t, "more workers than blocks", g, xrand.New(4).Perm(20000))

	// One block of 2048, walked by two workers when there are.
	g = randomGraph(13, 2048, 20000)
	if k, nb := blocksOf(2048, g.NumArcs()); nb != 1 || g.NumArcs() < 2*edgeChunk {
		t.Fatalf("2048 vertices and %d arcs make %d blocks of %d: want one block and two workers", g.NumArcs(), nb, 1<<k)
	}
	checkPermute(t, "one block", g, xrand.New(5).Perm(2048))

	checkPermute(t, "no vertex", MustFromEdges(0, nil), nil)
	checkPermute(t, "one vertex", MustFromEdges(1, nil), []int32{0})
}
