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
	n       int
	us      []int32
	vs      []int32
	cliques []clique
	built   bool
}

// clique is the complete subgraph on the ids [base, base+size).
type clique struct{ base, size int32 }

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

// AddClique records the complete subgraph on the size consecutive ids from
// base, all size·(size−1)/2 edges of it, as one entry: Build knows where each
// of those arcs sorts and writes it there (see Build), where the same edges
// through AddEdge would be counted, scattered and sorted one by one. A range
// that leaves [0, n) panics like an out-of-range edge; cliques may overlap
// each other and edges added any other way.
func (b *Builder) AddClique(base int32, size int) {
	if base < 0 || size < 0 || int(base)+size > b.n {
		panic(fmt.Sprintf("graph: clique [%d,%d+%d) out of range [0,%d)", base, base, size, b.n))
	}
	if size >= 2 {
		b.cliques = append(b.cliques, clique{base, int32(size)})
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
// once there is enough to pay for them (forChunks): count the degrees — size−1
// for every member of a clique, then both ends of every surviving edge with
// atomic adds — prefix-sum them into offsets, write the cliques, scatter both
// directions of the edges through an atomic cursor per vertex, sort and dedup
// each list where it lies, then close the gaps in place.
//
// A clique member's share of its clique is the ascending run of the other
// members' ids, so it is reserved with one cursor add and written as that
// run. The cliques go first, before any edge is scattered, so that a list
// begins with a run and has its strays — the arcs that arrived edge by edge —
// behind it: sortRunAndStrays then sorts the strays only and merges. The run
// of a second clique on the same vertex lands behind the first in whichever
// order the goroutines got there, and is simply more strays. The slot an arc
// lands in depends on how the goroutines interleave; the sort erases that, so
// the graph is the same for every worker count.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Builder.Build called twice")
	}
	b.built = true
	n, us, vs, cliques := b.n, b.us, b.vs, b.cliques
	b.us, b.vs, b.cliques = nil, nil, nil

	// Pass 1: degrees, dropping self loops; then offsets.
	xadj := make([]int64, n+1)
	size := len(us) // of the whole construction, in edges
	for _, c := range cliques {
		for v := c.base; v < c.base+c.size; v++ {
			xadj[v+1] += int64(c.size - 1)
		}
		size += int(c.size) * int(c.size-1) / 2
	}
	forChunks(size, len(us), edgeChunk, func(lo, hi int) {
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

	// Pass 2: the cliques' runs, then both directions of the edges.
	adj := make([]int32, xadj[n])
	next := make([]int64, n)
	copy(next, xadj)
	forChunks(size, len(cliques), cliqueChunk, func(lo, hi int) {
		for _, c := range cliques[lo:hi] {
			share := int64(c.size - 1)
			for k := 0; k < int(c.size); k++ { // member base+k: the others' ids, ascending
				end := atomic.AddInt64(&next[c.base+int32(k)], share)
				run := adj[end-share : end]
				for i := range run[:k] {
					run[i] = c.base + int32(i)
				}
				for i := k; i < len(run); i++ {
					run[i] = c.base + int32(i) + 1
				}
			}
		}
	})
	forChunks(size, len(us), edgeChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if u, v := us[i], vs[i]; u != v {
				adj[atomic.AddInt64(&next[u], 1)-1] = v
				adj[atomic.AddInt64(&next[v], 1)-1] = u
			}
		}
	})

	// Pass 3: sort and dedup each list; next[v] becomes the length kept.
	forChunks(size, n, vertexChunk, func(lo, hi int) {
		var buf [strayBuf]int32
		for v := lo; v < hi; v++ {
			list := adj[xadj[v]:xadj[v+1]]
			sortRunAndStrays(list, buf[:])
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

// strayBuf is how many strays sortRunAndStrays will merge, the size of the
// buffer a goroutine of pass 3 keeps on its stack for them.
const strayBuf = 256

// sortRunAndStrays sorts list, which Build has laid out as an ascending run
// with strays behind it: it finds the run as the longest ascending prefix,
// sorts the strays, moves them to buf and merges them into the run from the
// back. Strays that outnumber the run or buf (an ordinary list is all strays,
// so is most of a hub's) are not worth telling apart: the list is sorted whole.
func sortRunAndStrays(list, buf []int32) {
	k := 1
	for k < len(list) && list[k-1] <= list[k] {
		k++
	}
	if k >= len(list) {
		return
	}
	strays := list[k:]
	if len(strays) > min(k, len(buf)) {
		slices.Sort(list)
		return
	}
	slices.Sort(strays)
	strays = buf[:copy(buf, strays)]
	i, j := k-1, len(strays)-1
	for out := len(list) - 1; j >= 0; out-- {
		if i >= 0 && list[i] > strays[j] {
			list[out] = list[i]
			i--
		} else {
			list[out] = strays[j]
			j--
		}
	}
}
