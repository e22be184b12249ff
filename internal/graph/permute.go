package graph

import (
	"fmt"
	"slices"

	"micgraph/internal/xrand"
)

// Permute returns a new graph in which vertex v of g has been renamed
// perm[v]. perm must be a permutation of [0, NumVertices()).
//
// Relabeling is how the paper destroys memory locality: "we shuffled the
// vertex IDs of graphs randomly which break all the locality that naturally
// appears in the graphs" (§V-B, Figure 2).
//
// The new offsets are a prefix sum over the permuted degrees; the lists are
// then relabelled and sorted vertexChunk old vertices at a time by as many
// goroutines as Build would start for that many arcs (forChunks). Every list
// has one writer and a fixed place, so the result does not depend on how many
// there are.
func (g *Graph) Permute(perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d for %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: invalid permutation (value %d repeated or out of range)", p)
		}
		seen[p] = true
	}

	xadj := make([]int64, n+1)
	for v := 0; v < n; v++ {
		xadj[perm[v]+1] = int64(g.Degree(int32(v)))
	}
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	adj := make([]int32, len(g.adj))
	forChunks(len(adj), n, vertexChunk, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := perm[v]
			dst := adj[xadj[nv]:xadj[nv+1]]
			for i, w := range g.Adj(int32(v)) {
				dst[i] = perm[w]
			}
			slices.Sort(dst)
		}
	})
	return &Graph{xadj: xadj, adj: adj}, nil
}

// Shuffled returns a copy of g with vertex IDs randomly permuted using the
// given seed. Deterministic for a given (graph, seed) pair.
func (g *Graph) Shuffled(seed uint64) *Graph {
	ng, err := g.Permute(xrand.New(seed).Perm(g.NumVertices()))
	if err != nil {
		panic(err) // unreachable: Perm always yields a valid permutation
	}
	return ng
}

// IdentityPermutation returns [0, 1, ..., n-1].
func IdentityPermutation(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}
