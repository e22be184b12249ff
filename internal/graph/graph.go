// Package graph provides the compressed sparse row (CSR) graph representation
// shared by every kernel in this repository, together with builders,
// permutation utilities, traversal helpers, statistics, and Matrix Market /
// binary I/O.
//
// Graphs are simple (no self loops, no parallel edges) and undirected,
// stored symmetrically: every edge {u,v} appears both in Adj(u) and Adj(v),
// exactly as the coloring, BFS and irregular-computation kernels of the
// paper expect. Vertices are identified by int32 and adjacency offsets by
// int64, which comfortably covers the paper's largest graph (ldoor, 952K
// vertices, 20.7M edges, 41.4M CSR entries) at half the memory of int.
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Graph is an undirected graph in CSR form. The zero value is the empty
// graph. Graph values are immutable after construction; all methods are safe
// for concurrent use.
type Graph struct {
	xadj []int64 // len NumVertices()+1; xadj[v]..xadj[v+1] indexes adj
	adj  []int32 // concatenated sorted adjacency lists, len 2*NumEdges()

	// minima[v] is the smallest vertex of v's component, computed on the
	// first CheckComponentLabels and kept: 4 bytes a vertex, never handed out.
	minimaOnce sync.Once
	minima     []int32

	// maxDeg is Δ, computed on the first MaxDegree and kept.
	maxDegOnce sync.Once
	maxDeg     int
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int {
	if len(g.xadj) == 0 {
		return 0
	}
	return len(g.xadj) - 1
}

// NumEdges returns the number of undirected edges |E| (each edge counted
// once, even though it is stored twice).
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// NumArcs returns the number of stored directed arcs, i.e. 2|E|.
func (g *Graph) NumArcs() int64 { return int64(len(g.adj)) }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int { return int(g.xadj[v+1] - g.xadj[v]) }

// Adj returns the sorted adjacency list of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Adj(v int32) []int32 { return g.adj[g.xadj[v]:g.xadj[v+1]] }

// Xadj returns the raw CSR offset array (length NumVertices()+1). The
// returned slice aliases internal storage and must not be modified. It is
// exposed for kernels that iterate the CSR arrays directly.
func (g *Graph) Xadj() []int64 { return g.xadj }

// AdjRaw returns the raw concatenated adjacency array. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) AdjRaw() []int32 { return g.adj }

// MaxDegree returns Δ, the largest vertex degree (0 for the empty graph).
// One pass over the offsets on the first call; later calls read it back.
func (g *Graph) MaxDegree() int {
	g.maxDegOnce.Do(func() {
		for v := range g.NumVertices() {
			g.maxDeg = max(g.maxDeg, g.Degree(int32(v)))
		}
	})
	return g.maxDeg
}

// HasEdge reports whether the edge {u,v} is present, by binary search on the
// sorted adjacency of the lower-degree endpoint.
func (g *Graph) HasEdge(u, v int32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.Adj(u), v)
	return ok
}

// Validate checks the structural invariants of the CSR representation:
// monotone offsets, in-range neighbor ids, sorted adjacency, no self loops,
// no duplicate neighbors, and symmetry. It returns the first violation found.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.xadj) == 0 {
		if len(g.adj) != 0 {
			return fmt.Errorf("graph: empty xadj with %d adjacency entries", len(g.adj))
		}
		return nil
	}
	if g.xadj[0] != 0 {
		return fmt.Errorf("graph: xadj[0] = %d, want 0", g.xadj[0])
	}
	if g.xadj[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: xadj[n] = %d, want %d", g.xadj[n], len(g.adj))
	}
	for v := 0; v < n; v++ {
		if g.xadj[v] > g.xadj[v+1] {
			return fmt.Errorf("graph: xadj not monotone at vertex %d", v)
		}
		a := g.Adj(int32(v))
		for i, w := range a {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if w == int32(v) {
				return fmt.Errorf("graph: self loop at vertex %d", v)
			}
			if i > 0 && a[i-1] >= w {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted at index %d", v, i)
			}
		}
	}
	// Symmetry: every arc (v,w) must have a reverse arc (w,v).
	for v := 0; v < n; v++ {
		for _, w := range g.Adj(int32(v)) {
			if _, ok := slices.BinarySearch(g.Adj(w), int32(v)); !ok {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, w)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		xadj: make([]int64, len(g.xadj)),
		adj:  make([]int32, len(g.adj)),
	}
	copy(ng.xadj, g.xadj)
	copy(ng.adj, g.adj)
	return ng
}

// Equal reports whether g and h have identical CSR representations.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || len(g.adj) != len(h.adj) {
		return false
	}
	for i := range g.xadj {
		if g.xadj[i] != h.xadj[i] {
			return false
		}
	}
	for i := range g.adj {
		if g.adj[i] != h.adj[i] {
			return false
		}
	}
	return true
}

// String returns a short human-readable summary such as
// "graph{V=448124 E=3314611 Δ=37}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d E=%d Δ=%d}", g.NumVertices(), g.NumEdges(), g.MaxDegree())
}
