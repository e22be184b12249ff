// Package kerneltest is the differential-oracle tier for the optimized
// graph kernels: every entry of the kernels table (BFS block/TLS/bag/
// hybrid, speculative coloring, connected components, the irregular
// kernel) is cross-checked against the sequential reference on a shared
// corpus of seeded random and pathological graphs — stars, chains,
// disconnected forests, zero-degree vertices — the shapes where frontier
// bookkeeping, conflict detection, and the direction-optimizing switch go
// wrong first.
//
// The helpers here are also imported by the kernel packages' own external
// tests, so the corpus and the comparison discipline are defined exactly
// once. Companion alloc-regression tests in this package pin the steady
// state of the pooled Scratch paths to zero allocations per run.
package kerneltest

import (
	"fmt"
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
)

// Named is one corpus entry: a deterministic graph and its label.
type Named struct {
	Name string
	G    *graph.Graph
}

// Star returns a star on k+1 vertices: center 0, leaves 1..k.
func Star(k int) *graph.Graph {
	edges := make([]graph.Edge, 0, k)
	for i := 1; i <= k; i++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(i)})
	}
	return graph.MustFromEdges(k+1, edges)
}

// DoubleStar returns two stars of k leaves each whose centers are joined
// by a bridge edge — a worst case for the direction switch, because the
// frontier edge count collapses and explodes on consecutive levels.
func DoubleStar(k int) *graph.Graph {
	n := 2*k + 2
	edges := make([]graph.Edge, 0, 2*k+1)
	c2 := int32(k + 1)
	for i := 1; i <= k; i++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(i)})
		edges = append(edges, graph.Edge{U: c2, V: c2 + int32(i)})
	}
	edges = append(edges, graph.Edge{U: 0, V: c2})
	return graph.MustFromEdges(n, edges)
}

// Disconnected returns f disjoint chains of length l each.
func Disconnected(f, l int) *graph.Graph {
	n := f * l
	var edges []graph.Edge
	for c := 0; c < f; c++ {
		base := int32(c * l)
		for i := 0; i < l-1; i++ {
			edges = append(edges, graph.Edge{U: base + int32(i), V: base + int32(i) + 1})
		}
	}
	return graph.MustFromEdges(n, edges)
}

// WithIsolated returns an Erdős–Rényi graph on the first n vertices of a
// vertex set padded with iso zero-degree vertices at the top of the id
// range (they exercise the unreachable/zero-width paths of every kernel).
func WithIsolated(n, m, iso int, seed uint64) *graph.Graph {
	core := gen.ErdosRenyi(n, m, seed)
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for _, w := range core.Adj(int32(v)) {
			if int32(v) < w {
				edges = append(edges, graph.Edge{U: int32(v), V: w})
			}
		}
	}
	return graph.MustFromEdges(n+iso, edges)
}

// Corpus returns the shared seeded graph set: ≥20 deterministic graphs
// spanning the pathological shapes named above plus random sparse/dense
// instances. Every call rebuilds the graphs, so tests may not mutate them
// in ways that outlive a run anyway (CSR arrays are treated as read-only
// by all kernels).
func Corpus() []Named {
	out := []Named{
		{"single-vertex", graph.MustFromEdges(1, nil)},
		{"two-isolated", graph.MustFromEdges(2, nil)},
		{"single-edge", graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})},
		{"chain-64", gen.Chain(64)},
		{"chain-257", gen.Chain(257)},
		{"star-63", Star(63)},
		{"star-500", Star(500)},
		{"double-star-40", DoubleStar(40)},
		{"complete-24", gen.Complete(24)},
		{"complete-64", gen.Complete(64)},
		{"grid-16x16", gen.Grid2D(16, 16)},
		{"grid-7x5x3", gen.Grid3D(7, 5, 3)},
		{"ring-of-cliques-8x6", gen.RingOfCliques(8, 6)},
		{"disconnected-chains-5x20", Disconnected(5, 20)},
		{"disconnected-chains-16x3", Disconnected(16, 3)},
		{"isolated-tail-er", WithIsolated(80, 160, 17, 11)},
		{"rmat-s8", gen.RMAT(8, 8, 0.57, 0.19, 0.19, 42)},
		{"rmat-s9-skewed", gen.RMAT(9, 6, 0.7, 0.1, 0.1, 7)},
	}
	// Seeded sparse and dense Erdős–Rényi instances.
	for i, cfg := range []struct{ n, m int }{
		{50, 50}, {120, 150}, {120, 600}, {200, 220}, {300, 2400}, {97, 400},
	} {
		out = append(out, Named{
			Name: fmt.Sprintf("er-%d-%d", cfg.n, cfg.m),
			G:    gen.ErdosRenyi(cfg.n, cfg.m, uint64(100+i)),
		})
	}
	return out
}

// Sources returns the BFS source vertices exercised per graph: the first,
// middle, and last vertex (deduplicated). Empty for empty graphs.
func Sources(g *graph.Graph) []int32 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	set := []int32{0, int32(n / 2), int32(n - 1)}
	out := set[:0]
	for _, s := range set {
		dup := false
		for _, p := range out {
			if p == s {
				dup = true
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// CheckBFS compares a BFS result against the oracle, graph.Levels, on the
// same graph and source: identical per-vertex levels, the level count and
// the widths of the oracle's level histogram, and at least one processed
// queue entry per reached vertex.
func CheckBFS(t testing.TB, name string, g *graph.Graph, source int32, got bfs.Result) {
	t.Helper()
	if err := bfs.Validate(g, source, got.Levels); err != nil {
		t.Fatalf("%s: invalid levels: %v", name, err)
	}
	want, numLevels := g.Levels(source)
	widths := make([]int64, numLevels)
	for _, l := range want {
		if l != bfs.Unvisited {
			widths[l]++
		}
	}
	if got.NumLevels != numLevels {
		t.Fatalf("%s: NumLevels = %d, oracle %d", name, got.NumLevels, numLevels)
	}
	if len(got.Widths) != len(widths) {
		t.Fatalf("%s: widths = %v, oracle %v", name, got.Widths, widths)
	}
	var reached int64
	for i, w := range widths {
		if got.Widths[i] != w {
			t.Fatalf("%s: widths[%d] = %d, oracle %d", name, i, got.Widths[i], w)
		}
		reached += w
	}
	if got.Processed < reached {
		t.Fatalf("%s: processed %d < %d reached", name, got.Processed, reached)
	}
}

// CheckColoring verifies a proper coloring whose color count does not
// exceed Δ+1 (the guarantee of every first-fit variant).
func CheckColoring(t testing.TB, name string, g *graph.Graph, res coloring.Result) {
	t.Helper()
	checkColoring(t, name, g, res, coloring.Validate, g.MaxDegree()+1)
}

// CheckColoringD2 is CheckColoring at distance 2, where a vertex has at most
// min(Δ², n−1) others to avoid.
func CheckColoringD2(t testing.TB, name string, g *graph.Graph, res coloring.Result) {
	t.Helper()
	d := g.MaxDegree()
	checkColoring(t, name, g, res, coloring.ValidateD2, min(d*d, g.NumVertices()-1)+1)
}

func checkColoring(t testing.TB, name string, g *graph.Graph, res coloring.Result, validate func(*graph.Graph, []int32) error, bound int) {
	t.Helper()
	if err := validate(g, res.Colors); err != nil {
		t.Fatalf("%s: invalid coloring: %v", name, err)
	}
	if res.NumColors > bound {
		t.Fatalf("%s: used %d colors, first-fit bound is %d", name, res.NumColors, bound)
	}
	if n := coloring.CountColors(res.Colors); g.NumVertices() > 0 && n != res.NumColors {
		t.Fatalf("%s: NumColors = %d but colors use %d", name, res.NumColors, n)
	}
}

// CheckComponents verifies a component labeling against the graph's
// component minima: every label must be exact, and the count that of the
// roots, the one vertex of each component labelled with itself.
func CheckComponents(t testing.TB, name string, g *graph.Graph, res components.Result) {
	t.Helper()
	if err := components.Validate(g, res.Labels); err != nil {
		t.Fatalf("%s: invalid labeling: %v", name, err)
	}
	roots := 0
	for v, l := range res.Labels {
		if int32(v) == l {
			roots++
		}
	}
	if res.Count != roots {
		t.Fatalf("%s: count = %d, oracle %d", name, res.Count, roots)
	}
}
