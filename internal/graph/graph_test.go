package graph

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"micgraph/internal/xrand"
)

// path returns the path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

// randomGraph returns an Erdős–Rényi-ish graph for property tests.
func randomGraph(seed uint64, n, m int) *Graph {
	r := xrand.New(seed)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Errorf("zero Graph not empty: %v", g.String())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("zero Graph invalid: %v", err)
	}
	g2 := NewBuilder(0).Build()
	if g2.NumVertices() != 0 {
		t.Errorf("Build of empty builder has %d vertices", g2.NumVertices())
	}
	if err := g2.Validate(); err != nil {
		t.Errorf("built empty graph invalid: %v", err)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := NewBuilder(5).Build()
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got %s, want 5 vertices 0 edges", g)
	}
	for v := int32(0); v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", v, g.Degree(v))
		}
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	b.AddEdge(2, 3)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (dedup + self-loop removal)", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Error("expected edges missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 3) {
		t.Error("unexpected edges present")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(3).AddEdge(0, 3)
}

func TestBuildTwicePanics(t *testing.T) {
	b := NewBuilder(1)
	b.Build()
	defer func() {
		if recover() == nil {
			t.Fatal("second Build did not panic")
		}
	}()
	b.Build()
}

func TestFromEdgesErrors(t *testing.T) {
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := FromEdges(2, []Edge{{0, 2}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if err != nil || g.NumEdges() != 2 {
		t.Errorf("FromEdges = %v, %v", g, err)
	}
}

func TestFromAdjacency(t *testing.T) {
	g, err := FromAdjacency([][]int32{{1, 2}, {0}, {}}) // 0-2 only listed on one side
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("FromAdjacency did not symmetrise")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := FromAdjacency([][]int32{{5}}); err == nil {
		t.Error("out-of-range adjacency accepted")
	}
}

func TestDegreesAndStats(t *testing.T) {
	g := complete(5)
	if g.MaxDegree() != 4 {
		t.Errorf("K5 MaxDegree = %d", g.MaxDegree())
	}
	if g.NumEdges() != 10 {
		t.Errorf("K5 edges = %d", g.NumEdges())
	}
	if g.AvgDegree() != 4 {
		t.Errorf("K5 AvgDegree = %v", g.AvgDegree())
	}
	s := ComputeStats(g)
	if s.MaxDegree != 4 || s.MinDegree != 4 || s.DegreeP50 != 4 || s.Components != 1 {
		t.Errorf("K5 stats = %+v", s)
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := randomGraph(1, 50, 200)
	h := g.Clone()
	if !g.Equal(h) {
		t.Error("clone not equal")
	}
	if h.NumEdges() > 0 {
		h.adj[0]++ // mutating the clone must not affect the original
		if g.Equal(h) {
			t.Error("clone shares storage with original")
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Graph)
	}{
		{"asymmetric", func(g *Graph) { g.adj[0] = g.adj[1] }},
		{"unsorted", func(g *Graph) {
			a := g.Adj(0)
			if len(a) >= 2 {
				a[0], a[1] = a[1], a[0]
			}
		}},
		{"out-of-range", func(g *Graph) { g.adj[0] = int32(g.NumVertices()) }},
		{"self-loop", func(g *Graph) { g.adj[g.xadj[3]] = 3 }},
		{"bad-offset", func(g *Graph) { g.xadj[1] = g.xadj[2] + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := complete(6)
			tc.mutate(g)
			if err := g.Validate(); err == nil {
				t.Errorf("corruption %q not detected", tc.name)
			}
		})
	}
}

func TestRandomGraphsValid(t *testing.T) {
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%200) + 1
		m := int(mRaw % 1000)
		g := randomGraph(seed, n, m)
		return g.Validate() == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHasEdgeMatchesAdjacency(t *testing.T) {
	g := randomGraph(7, 80, 400)
	n := g.NumVertices()
	adjSet := make(map[[2]int32]bool)
	for v := 0; v < n; v++ {
		for _, w := range g.Adj(int32(v)) {
			adjSet[[2]int32{int32(v), w}] = true
		}
	}
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			if g.HasEdge(u, v) != adjSet[[2]int32{u, v}] {
				t.Fatalf("HasEdge(%d,%d) = %v disagrees with adjacency", u, v, g.HasEdge(u, v))
			}
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := path(4) // degrees: 1,2,2,1
	h := DegreeHistogram(g)
	want := []int64{0, 2, 2}
	if len(h) != len(want) {
		t.Fatalf("histogram length %d, want %d", len(h), len(want))
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("histogram[%d] = %d, want %d", i, h[i], want[i])
		}
	}
}

// referenceBuild is the sequential construction Build and Permute must agree
// with word for word: every arc, both ways, in one list sorted by (tail,
// head), self loops and repeats dropped on the way out.
func referenceBuild(n int, edges []Edge) *Graph {
	var arcs []Edge
	for _, e := range edges {
		if e.U != e.V {
			arcs = append(arcs, e, Edge{e.V, e.U})
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		return arcs[i].U < arcs[j].U || arcs[i].U == arcs[j].U && arcs[i].V < arcs[j].V
	})
	g := &Graph{xadj: make([]int64, n+1), adj: []int32{}}
	for i, a := range arcs {
		if i == 0 || a != arcs[i-1] {
			g.adj = append(g.adj, a.V)
			g.xadj[a.U+1]++
		}
	}
	for v := 0; v < n; v++ {
		g.xadj[v+1] += g.xadj[v]
	}
	return g
}

// messyEdges draws m edges of everything Build has to survive: self loops,
// repeats in the same and in the opposite orientation, a hub on half of all
// edges (the cursor every worker hits at once) and, the top quarter of the
// id range never being drawn, isolated vertices.
func messyEdges(seed uint64, n, m int) []Edge {
	r := xrand.New(seed)
	used := max(n*3/4, 1)
	hub := int32(r.Intn(used))
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		e := Edge{int32(r.Intn(used)), int32(r.Intn(used))}
		switch k := r.Intn(8); {
		case k == 0:
			e.V = e.U
		case k <= 4:
			e.U = hub
		case k == 5 && len(edges) > 0:
			e = edges[r.Intn(len(edges))]
		case k == 6 && len(edges) > 0:
			old := edges[r.Intn(len(edges))]
			e = Edge{old.V, old.U}
		}
		edges = append(edges, e)
	}
	return edges
}

// buildSizes straddle the inline cutoff (one edgeChunk) from both sides.
var buildSizes = []struct{ n, m int }{
	{1, 0}, {1, 5}, {2, 9}, {40, 300}, {3000, edgeChunk - 1}, {3000, edgeChunk},
	{3000, edgeChunk + 1}, {300, 3 * edgeChunk}, {20000, 5*edgeChunk + 17}, {150000, 8 * edgeChunk},
}

func TestBuildMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for i, sz := range buildSizes {
		edges := messyEdges(uint64(i), sz.n, sz.m)
		want := referenceBuild(sz.n, edges)
		b := NewBuilder(sz.n)
		half := len(edges) / 2
		for _, e := range edges[:half] {
			b.AddEdge(e.U, e.V)
		}
		b.AddEdges(len(edges)-half, func(us, vs []int32) {
			for j, e := range edges[half:] {
				us[j], vs[j] = e.U, e.V
			}
		})
		got := b.Build()
		if !got.Equal(want) {
			t.Errorf("n=%d m=%d: Build differs from the reference (%s vs %s)", sz.n, sz.m, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("n=%d m=%d: %v", sz.n, sz.m, err)
		}
		if cap(got.adj) != len(got.adj) {
			t.Errorf("n=%d m=%d: adj has %d words of spare capacity", sz.n, sz.m, cap(got.adj)-len(got.adj))
		}
	}
}

func TestAddEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdges with an out-of-range endpoint did not panic")
		}
	}()
	NewBuilder(3).AddEdges(2, func(us, vs []int32) { us[1], vs[1] = 1, -1 })
}

func TestForChunksCoversOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, size := range []int{edgeChunk, edgeChunk + 1} { // inline, forked
			for _, n := range []int{0, 1, 7, 8, 9, 1000} {
				hits := make([]int32, n)
				forChunks(size, n, 8, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("GOMAXPROCS=%d size=%d n=%d: index %d visited %d times", procs, size, n, i, h)
					}
				}
			}
		}
	}
}
