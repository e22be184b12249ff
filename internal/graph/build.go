package graph

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Edge is an undirected edge between two vertices. The orientation is
// irrelevant: {U,V} and {V,U} denote the same edge.
type Edge struct {
	U, V int32
}

// FromEdges builds a simple undirected CSR graph on n vertices from an
// arbitrary edge list. Self loops are dropped, parallel edges are
// deduplicated, and the result is symmetric with sorted adjacency lists.
// It returns an error if n < 0 or any endpoint is out of [0, n).
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build(), nil
}

// MustFromEdges is FromEdges, panicking on error. Intended for tests and
// generators whose inputs are correct by construction.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Builder accumulates edges and produces a CSR graph. It is cheaper than
// FromEdges for generators that know approximately how many edges they will
// add, and it tolerates duplicate and self-loop insertions (they are
// silently discarded at Build time). Builder is not safe for concurrent use.
type Builder struct {
	n     int
	us    []int32
	vs    []int32
	built bool
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// Grow pre-allocates capacity for m additional edges.
func (b *Builder) Grow(m int) {
	b.us = slices.Grow(b.us, m)
	b.vs = slices.Grow(b.vs, m)
}

// AddEdge records the undirected edge {u,v}. Out-of-range endpoints panic;
// self loops and duplicates are tolerated and removed at Build time.
func (b *Builder) AddEdge(u, v int32) {
	b.check(u, v)
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
}

// AddEdges records m edges at once: fill is handed the Builder's own next m
// slots, us[i] and vs[i] the ends of one edge, to write in any order and from
// as many goroutines as it likes before it returns; the endpoints are then
// checked as AddEdge checks them. A generator of millions of edges pays
// neither a call per edge nor a second copy of the list.
func (b *Builder) AddEdges(m int, fill func(us, vs []int32)) {
	b.Grow(m)
	k := len(b.us)
	b.us, b.vs = b.us[:k+m], b.vs[:k+m]
	fill(b.us[k:], b.vs[k:])
	for i := k; i < k+m; i++ {
		b.check(b.us[i], b.vs[i])
	}
}

func (b *Builder) check(u, v int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
}

// Build produces the CSR graph. The Builder must not be reused afterwards.
//
// The construction is a counting sort by vertex, run by GOMAXPROCS goroutines
// once the edge list is long enough to pay for them (forChunks): count the
// degrees of both ends of every surviving edge with atomic adds, prefix-sum
// them into offsets, scatter both directions through an atomic cursor per
// vertex, sort and dedup each list where it lies, then close the gaps in
// place. The slot an arc lands in depends on how the goroutines interleave;
// the sort erases that, so the graph is the same for every worker count.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Builder.Build called twice")
	}
	b.built = true
	n, us, vs := b.n, b.us, b.vs
	b.us, b.vs = nil, nil

	// Pass 1: degrees, dropping self loops; then offsets.
	xadj := make([]int64, n+1)
	forChunks(len(us), len(us), edgeChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if u, v := us[i], vs[i]; u != v {
				atomic.AddInt64(&xadj[u+1], 1)
				atomic.AddInt64(&xadj[v+1], 1)
			}
		}
	})
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}

	// Pass 2: scatter both directions.
	adj := make([]int32, xadj[n])
	next := make([]int64, n)
	copy(next, xadj)
	forChunks(len(us), len(us), edgeChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if u, v := us[i], vs[i]; u != v {
				adj[atomic.AddInt64(&next[u], 1)-1] = v
				adj[atomic.AddInt64(&next[v], 1)-1] = u
			}
		}
	})

	// Pass 3: sort and dedup each list; next[v] becomes the length kept.
	forChunks(len(us), n, vertexChunk, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			list := adj[xadj[v]:xadj[v+1]]
			slices.Sort(list)
			next[v] = int64(len(slices.Compact(list)))
		}
	})

	// Pass 4: move the lists left over the gaps, in place.
	out := int64(0)
	for v := 0; v < n; v++ {
		lo := xadj[v]
		xadj[v] = out
		out += int64(copy(adj[out:], adj[lo:lo+next[v]]))
	}
	xadj[n] = out
	return &Graph{xadj: xadj, adj: adj[:out:out]}
}

// FromAdjacency builds a graph from explicit adjacency lists. The lists are
// symmetrised: if w appears in lists[v], the edge {v,w} is added regardless
// of whether v appears in lists[w]. Intended for tests and small examples.
func FromAdjacency(lists [][]int32) (*Graph, error) {
	n := len(lists)
	b := NewBuilder(n)
	for v, l := range lists {
		for _, w := range l {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: adjacency of %d contains out-of-range %d", v, w)
			}
			if int32(v) < w { // add each undirected edge once; Build dedups anyway
				b.AddEdge(int32(v), w)
			} else if int32(v) > w {
				b.AddEdge(w, int32(v))
			}
		}
	}
	return b.Build(), nil
}
