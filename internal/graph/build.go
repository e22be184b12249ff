package graph

import (
	"fmt"
	"sort"
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
	if cap(b.us)-len(b.us) < m {
		nus := make([]int32, len(b.us), len(b.us)+m)
		copy(nus, b.us)
		b.us = nus
		nvs := make([]int32, len(b.vs), len(b.vs)+m)
		copy(nvs, b.vs)
		b.vs = nvs
	}
}

// AddEdge records the undirected edge {u,v}. Out-of-range endpoints panic;
// self loops and duplicates are tolerated and removed at Build time.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
}

// Build produces the CSR graph. The Builder must not be reused afterwards.
//
// The construction is the classic two-pass counting sort: count degrees of
// both endpoints of every surviving edge, prefix-sum into offsets, scatter,
// then sort and dedup each adjacency list in place.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Builder.Build called twice")
	}
	b.built = true
	n := b.n

	// Pass 1: degrees, dropping self loops.
	deg := make([]int64, n+1)
	for i := range b.us {
		if b.us[i] == b.vs[i] {
			continue
		}
		deg[b.us[i]+1]++
		deg[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	xadj := deg // reuse: deg is now the prefix sum / final xadj after scatter

	// Pass 2: scatter both directions.
	adj := make([]int32, xadj[n])
	next := make([]int64, n)
	for v := 0; v < n; v++ {
		next[v] = xadj[v]
	}
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		if u == v {
			continue
		}
		adj[next[u]] = v
		next[u]++
		adj[next[v]] = u
		next[v]++
	}
	b.us, b.vs = nil, nil

	// Pass 3: sort and dedup each list, compacting in place.
	out := int64(0)
	newXadj := make([]int64, n+1)
	for v := 0; v < n; v++ {
		lo, hi := xadj[v], xadj[v+1]
		list := adj[lo:hi]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		newXadj[v] = out
		var prev int32 = -1
		for _, w := range list {
			if w != prev {
				adj[out] = w
				out++
				prev = w
			}
		}
	}
	newXadj[n] = out
	return &Graph{xadj: newXadj, adj: adj[:out:out]}
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
