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
// colors. Its first fit is the parallel rounds' (maskFit), and it moves to
// the forbidden-color array for good at the first vertex the mask cannot
// color.
func SeqGreedy(g *graph.Graph) Result {
	n := g.NumVertices()
	colors := make([]int32, n)
	// forbidden[c] == v marks color c as in use by a neighbor of v.
	forbidden := make([]int32, g.MaxDegree()+2)
	for i := range forbidden {
		forbidden[i] = -1
	}
	array := false
	maxColor := int32(0)
	for v := int32(0); int(v) < n; v++ {
		nbrs := g.Adj(v)
		c := int32(64)
		if !array {
			c = maskFit(colors, nbrs)
		}
		if c == 64 {
			array = true
			for _, w := range nbrs {
				if c := colors[w]; c > 0 {
					forbidden[c] = v
				}
			}
			c = 1
			for forbidden[c] == v {
				c++
			}
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
// violation at the lowest vertex: the vertex uncolored, or the edge to its
// lowest neighbour of the same color.
//
// Each undirected edge is read once, from its higher end: adjacency lists
// are sorted and symmetric (a graph.Graph invariant), so the lower end u of
// an edge (u, v) is in v's list below v, and a vertex's scan stops at its
// first neighbour above it. Scratch.Check runs the same pass on an engine.
func Validate(g *graph.Graph, colors []int32) error {
	n := g.NumVertices()
	if len(colors) != n {
		return lengthError(colors, n)
	}
	if v := firstClash(g.Xadj(), g.AdjRaw(), colors, 0, n); v < n {
		return clashError(g, colors, v)
	}
	return nil
}

// firstClash returns the first vertex of [lo, hi) that is uncolored or has
// the color of a lower neighbour, else hi. It is the one body of both
// checks: Validate runs it over [0, n), Scratch.Check over engine chunks.
func firstClash(xadj []int64, adj, colors []int32, lo, hi int) int {
	for v := int32(lo); v < int32(hi); v++ {
		c := colors[v]
		if c <= 0 {
			return int(v)
		}
		for _, u := range adj[xadj[v]:xadj[v+1]] {
			if u >= v {
				break
			}
			if colors[u] == c {
				return int(v)
			}
		}
	}
	return hi
}

func lengthError(colors []int32, n int) error {
	return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), n)
}

// clashError describes the violation firstClash found at v. The first
// neighbour of v's color in its sorted list is the lowest one, and firstClash
// saw it below v.
func clashError(g *graph.Graph, colors []int32, v int) error {
	if c := colors[v]; c > 0 {
		for _, u := range g.Adj(int32(v)) {
			if colors[u] == c {
				return fmt.Errorf("coloring: edge (%d,%d) monochromatic with color %d", u, v, c)
			}
		}
	}
	return fmt.Errorf("coloring: vertex %d uncolored", v)
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
