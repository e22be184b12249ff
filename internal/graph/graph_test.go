package graph

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
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

func TestDegreesAndStats(t *testing.T) {
	g := complete(5)
	if g.MaxDegree() != 4 {
		t.Errorf("K5 MaxDegree = %d", g.MaxDegree())
	}
	if g.NumEdges() != 10 {
		t.Errorf("K5 edges = %d", g.NumEdges())
	}
	if _, k := g.ConnectedComponents(); k != 1 {
		t.Errorf("K5 has %d components", k)
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
// edges (the block every worker writes to most) and, the top quarter of the
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

// messyCliques draws the cliques Build has to survive beside messyEdges: empty,
// of one and of two, a wide one (a run longer than strayBuf) and another begun
// in its middle, so that a vertex of both has a second run behind its first, a
// few small ones anywhere, and one on the last edge's first end — the hub, as
// a rule. It returns them with edges of every clique added to edges as well,
// in one orientation, in the other and in both.
func messyCliques(seed uint64, n int, edges []Edge) ([]clique, []Edge) {
	r := xrand.New(seed ^ 0xc11c)
	wide := int32(min(n, 300))
	cliques := []clique{{0, 0}, {int32(n - 1), 1}, {int32(n / 2), int32(min(n-n/2, 2))},
		{0, wide}, {wide / 2, int32(min(n-int(wide)/2, 200))}}
	for i := 0; i < 6; i++ {
		base := r.Intn(n)
		cliques = append(cliques, clique{int32(base), int32(r.Intn(min(n-base, 60) + 1))})
	}
	if len(edges) > 0 {
		hub := edges[len(edges)-1].U
		cliques = append(cliques, clique{hub, min(int32(n)-hub, 9)})
	}
	return cliques, withEdgesOf(edges, cliques)
}

// withEdgesOf adds edges of every clique of two or more to edges, in one
// orientation, in the other and in both, so that its runs meet arcs they
// duplicate.
func withEdgesOf(edges []Edge, cliques []clique) []Edge {
	for _, c := range cliques {
		if c.size >= 2 {
			u, v, w := c.base, c.base+c.size-1, c.base+c.size/2
			edges = append(edges, Edge{u, v}, Edge{w, u}, Edge{v, w}, Edge{w, v})
		}
	}
	return edges
}

// expand lists the edges of the cliques one by one, for referenceBuild.
func expand(cliques []clique) []Edge {
	var edges []Edge
	for _, c := range cliques {
		for u := c.base; u < c.base+c.size; u++ {
			for v := u + 1; v < c.base+c.size; v++ {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return edges
}

// checkBuild hands the edges, half of them through AddEdge and half through
// AddEdges, and the cliques to a Builder under GOMAXPROCS 1, 2 and 8 and
// compares what Build returns with the reference on the expanded edge list.
func checkBuild(t *testing.T, n int, edges []Edge, cliques []clique) {
	t.Helper()
	want := referenceBuild(n, append(expand(cliques), edges...))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		b := NewBuilder(n)
		half := len(edges) / 2
		for _, e := range edges[:half] {
			b.AddEdge(e.U, e.V)
		}
		for _, c := range cliques {
			b.AddClique(c.base, int(c.size))
		}
		b.AddEdges(len(edges)-half, func(us, vs []int32) {
			for j, e := range edges[half:] {
				us[j], vs[j] = e.U, e.V
			}
		})
		got := b.Build()
		if !got.Equal(want) {
			t.Errorf("GOMAXPROCS=%d n=%d m=%d, %d cliques: Build differs from the reference (%s vs %s)",
				procs, n, len(edges), len(cliques), got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("GOMAXPROCS=%d n=%d m=%d: %v", procs, n, len(edges), err)
		}
		if cap(got.adj) != len(got.adj) {
			t.Errorf("n=%d m=%d: adj has %d words of spare capacity", n, len(edges), cap(got.adj)-len(got.adj))
		}
	}
}

// buildSizes straddle the inline cutoff (one edgeChunk) from both sides; the
// last three are cut into three to ten blocks, the 3000-vertex ones into three
// once messyCliques has added its cliques.
var buildSizes = []struct{ n, m int }{
	{1, 0}, {1, 5}, {2, 9}, {40, 300}, {3000, edgeChunk - 1}, {3000, edgeChunk},
	{3000, edgeChunk + 1}, {300, 3 * edgeChunk}, {20000, 5*edgeChunk + 17}, {150000, 8 * edgeChunk},
}

func TestBuildMatchesReference(t *testing.T) {
	for i, sz := range buildSizes {
		edges := messyEdges(uint64(i), sz.n, sz.m)
		checkBuild(t, sz.n, edges, nil)
		cliques, edges := messyCliques(uint64(i), sz.n, edges)
		checkBuild(t, sz.n, edges, cliques)
	}
	// K_181 is 16 290 edges: 94 more make one edgeChunk, the last size built
	// inline, and 95 the first over the cutoff, by the clique's weight alone.
	for _, m := range []int{0, 94, 95} {
		checkBuild(t, 200, messyEdges(7, 200, m), []clique{{3, 181}})
	}
}

// blocksOf returns the log2 of the block size Build and Permute cut n
// vertices into for that many arcs, and the number of blocks.
func blocksOf(n int, arcs int64) (uint, int) {
	k := blockShift(n, int(arcs))
	return k, (n + 1<<k - 1) >> k
}

// arcsOf is how many arcs Build blocks for these edges and cliques.
func arcsOf(edges []Edge, cliques []clique) int64 {
	arcs := 2 * len(edges)
	for _, c := range cliques {
		arcs += int(c.size) * int(c.size-1)
	}
	return int64(arcs)
}

// TestBuildBlockShapes builds the shapes the per-block pass of Build has to
// get right, under GOMAXPROCS 1, 2 and 8, after checking that each is the
// shape it is named for.
func TestBuildBlockShapes(t *testing.T) {
	// 20 000 vertices in blocks of 4096: five blocks, the last one short,
	// fewer than eight workers, and counted by five workers when there are.
	const n = 20000
	edges := messyEdges(11, n, 5*edgeChunk+17)
	deg := make(map[int32]int)
	for _, e := range edges {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	hub := edges[0].U
	for v, d := range deg {
		if d > deg[hub] {
			hub = v
		}
	}
	bs := int32(1) << blockShift(n, 2*len(edges))
	cliques := []clique{
		{bs - 7, 20},                   // across the boundary of blocks 0 and 1
		{bs + 100, 50}, {bs + 120, 60}, // overlapping, in block 1
		{2*bs + 10, 30}, {2*bs + 25, 30}, // and in block 2
		{hub, 9}, // a run ahead of the hub's strays
	}
	edges = withEdgesOf(edges, cliques)
	k, nb := blocksOf(n, arcsOf(edges, cliques))
	switch straddler := cliques[0]; {
	case 1<<k != bs:
		t.Fatalf("the cliques moved the block size from %d to %d", bs, 1<<k)
	case n%(1<<k) == 0 || nb < 3 || nb >= 8:
		t.Fatalf("%d vertices make %d blocks of %d: want at least 3 and fewer than 8, the last one short", n, nb, 1<<k)
	case straddler.base>>k == (straddler.base+straddler.size-1)>>k:
		t.Fatalf("clique %v lies inside one block of %d", straddler, 1<<k)
	case deg[hub] <= strayBuf:
		t.Fatalf("the hub has %d strays, no more than the buffer's %d", deg[hub], strayBuf)
	case len(edges) < 5*edgeChunk:
		t.Fatalf("%d edges are too few for five workers", len(edges))
	}
	checkBuild(t, n, edges, cliques)

	// One block of 2048, counted and scattered by two workers when there are.
	edges = messyEdges(12, 2048, 2*edgeChunk)
	if k, nb := blocksOf(2048, arcsOf(edges, nil)); nb != 1 {
		t.Fatalf("2048 vertices make %d blocks of %d, want one", nb, 1<<k)
	}
	checkBuild(t, 2048, edges, nil)

	// One block of 4096 for 3000 vertices, with cliques.
	cliques = []clique{{10, 20}, {15, 20}, {2990, 10}}
	edges = withEdgesOf(messyEdges(13, 3000, edgeChunk+1), cliques)
	if k, nb := blocksOf(3000, arcsOf(edges, cliques)); nb != 1 {
		t.Fatalf("3000 vertices make %d blocks of %d, want one", nb, 1<<k)
	}
	checkBuild(t, 3000, edges, cliques)
}

func TestAddCliquePanicsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		base int32
		size int
	}{{-1, 2}, {2, 2}, {0, 4}, {1, -1}, {3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddClique(%d, %d) on 3 vertices did not panic", c.base, c.size)
				}
			}()
			NewBuilder(3).AddClique(c.base, c.size)
		}()
	}
	b := NewBuilder(3)
	b.AddClique(3, 0) // empty, at the end of the range: nothing to be out of it
	b.AddClique(0, 3)
	if g := b.Build(); !g.Equal(complete(3)) {
		t.Errorf("AddClique(0, 3) built %s, want K_3", g)
	}
}

// TestSortRunAndStrays holds the run-and-strays sort to slices.Sort on every
// shape of list Build can hand it, with the buffer Build gives it and with
// one too small for the strays.
func TestSortRunAndStrays(t *testing.T) {
	long := make([]int32, 2*strayBuf+40) // a run of strayBuf+20, then as many strays as buf holds and 20 more
	for i := range long {
		long[i] = int32(3 * i)
		if i >= strayBuf+20 {
			long[i] = int32(7*(len(long)-i) + 1)
		}
	}
	cases := []struct {
		name string
		list []int32
	}{
		{"empty", nil},
		{"one word", []int32{4}},
		{"all run", []int32{1, 2, 3, 5, 8, 9}},
		{"all strays", []int32{9, 7, 7, 4, 2, 0}},
		{"one stray in front", []int32{2, 3, 4, 5, 6, 0}},
		{"one stray behind", []int32{2, 3, 4, 5, 6, 9, 7}},
		{"duplicates across the seam", []int32{1, 3, 5, 5, 3, 1}},
		{"strays equal to the ends", []int32{1, 3, 5, 7, 7, 1}},
		{"a second run behind the first", []int32{0, 1, 2, 3, 7, 8, 9, 4, 5, 6}},
		{"a second run and strays", []int32{10, 11, 12, 13, 14, 15, 16, 12, 13, 14, 40, 3}},
		{"strays outnumber the run", []int32{5, 6, 4, 3, 9, 1, 7}},
		{"strays outnumber the buffer", long},
	}
	for _, c := range cases {
		for _, buf := range []int{strayBuf, 2} {
			got := slices.Clone(c.list)
			sortRunAndStrays(got, make([]int32, buf))
			want := slices.Clone(c.list)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s, buffer of %d: got %v, want %v", c.name, buf, got, want)
			}
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

// TestRadixSort holds radixSort to a stable sort on the key it is given: words
// that agree on bits [lo, hi) keep their order whatever their other bits, with
// one pass and with two and three, from bit 0 and from above it, over the
// whole word (the sign bit a digit bit like any other), with a pass skipped
// because one digit is the same everywhere, and on zero and one word.
func TestRadixSort(t *testing.T) {
	r := xrand.New(1)
	random := make([]int32, 5000)
	for i := range random {
		random[i] = int32(r.Uint64())
	}
	narrow := make([]int32, 3000) // bits 11 to 21 are zero: a pass on them moves nothing
	for i := range narrow {
		narrow[i] = int32(r.Uint64()) &^ (1<<22 - 1<<11)
	}
	cases := []struct {
		name   string
		a      []int32
		lo, hi uint
	}{
		{"empty", nil, 0, 30},
		{"one word", []int32{-7}, 0, 32},
		{"one pass", random, 0, 11},
		{"one pass from bit 19", random, 19, 30},
		{"two passes", random, 0, 22},
		{"two passes from bit 5", random, 5, 27},
		{"three passes", random, 0, 30},
		{"the whole word", random, 0, 32},
		{"a pass skipped of three", narrow, 0, 32},
		{"a pass skipped of two", narrow, 0, 22},
		{"no bits", random, 7, 7},
	}
	for _, c := range cases {
		key := func(x int32) uint32 { return uint32(uint64(uint32(x)) >> c.lo & (1<<(c.hi-c.lo) - 1)) }
		want := slices.Clone(c.a)
		slices.SortStableFunc(want, func(x, y int32) int { return cmp.Compare(key(x), key(y)) })
		got := slices.Clone(c.a)
		radixSort(got, make([]int32, len(got)+3), c.lo, c.hi)
		if !slices.Equal(got, want) {
			t.Errorf("%s (bits [%d, %d)): not the stable sort on the key", c.name, c.lo, c.hi)
		}
	}
}
