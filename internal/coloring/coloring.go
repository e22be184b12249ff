// Package coloring implements the paper's graph-coloring kernels: the
// sequential First-Fit greedy algorithm (Algorithm 1) and the iterative
// parallel speculative coloring of Gebremedhin–Manne/Bozdağ et al.
// (Algorithms 2–4) in three runtime flavours matching the paper's OpenMP,
// Cilk Plus and TBB implementations, plus distance-2 coloring (mentioned in
// §I as the Jacobian-compression variant).
//
// Colors are 1-based int32s; 0 means "not yet colored". A coloring is valid
// when no edge joins two vertices of the same color.
//
// Shared color arrays are accessed with sync/atomic loads and stores: the
// speculative algorithm lets concurrent workers read stale neighbor colors,
// and atomics give the paper's "benign race" without undefined behaviour in
// the Go memory model — and, being sequentially consistent, let a vertex see
// its own conflicts right after publishing its color (parallel.go).
package coloring

import (
	"fmt"

	"micgraph/internal/graph"
)

// Result reports the outcome of a coloring run.
type Result struct {
	Colors    []int32 // per-vertex color, 1-based
	NumColors int     // maximum color used
	Rounds    int     // speculative rounds executed (1 for sequential)
	Conflicts []int   // per-round conflict counts (empty for sequential)
}

// SeqGreedy colors g with the sequential First-Fit greedy algorithm
// (Algorithm 1), visiting vertices in natural order. It uses at most Δ+1
// colors.
func SeqGreedy(g *graph.Graph) Result {
	n := g.NumVertices()
	colors := make([]int32, n)
	// forbidden[c] == v marks color c as in use by a neighbor of v.
	forbidden := make([]int32, g.MaxDegree()+2)
	for i := range forbidden {
		forbidden[i] = -1
	}
	maxColor := int32(0)
	for v := int32(0); int(v) < n; v++ {
		for _, w := range g.Adj(v) {
			if c := colors[w]; c > 0 {
				forbidden[c] = v
			}
		}
		c := int32(1)
		for forbidden[c] == v {
			c++
		}
		colors[v] = c
		if c > maxColor {
			maxColor = c
		}
	}
	return Result{Colors: colors, NumColors: int(maxColor), Rounds: 1}
}

// Validate checks that colors is a proper coloring of g: every vertex
// colored with a positive color and no monochromatic edge. It returns the
// first violation found.
func Validate(g *graph.Graph, colors []int32) error {
	n := g.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), n)
	}
	for v := 0; v < n; v++ {
		if colors[v] <= 0 {
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
		for _, w := range g.Adj(int32(v)) {
			if colors[v] == colors[w] {
				return fmt.Errorf("coloring: edge (%d,%d) monochromatic with color %d", v, w, colors[v])
			}
		}
	}
	return nil
}

// CountColors returns the maximum color in use.
func CountColors(colors []int32) int {
	m := int32(0)
	for _, c := range colors {
		if c > m {
			m = c
		}
	}
	return int(m)
}
