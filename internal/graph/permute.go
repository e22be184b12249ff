package graph

import (
	"fmt"
	"slices"
	"sync/atomic"

	"micgraph/internal/xrand"
)

// Permute returns a new graph in which vertex v of g has been renamed
// perm[v]. perm must be a permutation of [0, NumVertices()).
//
// Relabeling is how the paper destroys memory locality: "we shuffled the
// vertex IDs of graphs randomly which break all the locality that naturally
// appears in the graphs" (§V-B, Figure 2).
//
// g is symmetric, so the new list of x is {perm[w] : w ∈ Adj(inv[x])} and also
// {y : x ∈ perm(Adj(inv[y]))}: walking the new ids y in ascending order and
// appending y to the list of perm[v] for every v in Adj(inv[y]) fills every
// list in ascending order, with no sort. The walk is partitioned the way
// Build partitions its edges, into blocks of 2^k consecutive new ids
// (blockShift) and one contiguous range of y per worker, as many arcs each:
//
//   - the new offsets are a prefix sum over the permuted degrees;
//   - count: each worker counts its arcs into a counter per block of its own;
//   - one prefix sum over (block, worker) lays block b's ranges out in worker
//     order at the offset of its first vertex;
//   - scatter: each worker walks its y in order and writes y, with x's id
//     within its block packed above it, into its own range of x's block;
//   - per block, claimed off one cursor: a stable radix sort on the packed ids
//     gathers each list, still ascending, and the ids are cleared.
//
// Every range has one writer and every block one owner, and no atomic is taken
// but the block claims; every list is sorted by construction, so the result
// does not depend on the worker count.
func (g *Graph) Permute(perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d for %d vertices", len(perm), n)
	}
	inv := make([]int32, n)
	for y := range inv {
		inv[y] = -1
	}
	for v, p := range perm {
		if p < 0 || int(p) >= n || inv[p] >= 0 {
			return nil, fmt.Errorf("graph: invalid permutation (value %d repeated or out of range)", p)
		}
		inv[p] = int32(v)
	}

	m := len(g.adj)
	xadj := make([]int64, n+1)
	for y, v := range inv {
		xadj[y+1] = xadj[y] + g.xadj[v+1] - g.xadj[v]
	}
	k := blockShift(n, m)
	nb := (n + 1<<k - 1) >> k
	p := max(1, min(workers(m), m/edgeChunk))
	// Worker w walks the new ids [cut(w), cut(w+1)), about m/p arcs; the ids
	// past cut(p) have none.
	cut := func(w int) int {
		y, _ := slices.BinarySearch(xadj, int64(w*m/p))
		return y
	}

	// Count: worker w's arcs into block b are cnt[w*nb+b].
	cnt := make([]int, p*nb)
	parallel(p, func(w int) {
		c := cnt[w*nb : (w+1)*nb]
		for y, end := cut(w), cut(w+1); y < end; y++ {
			for _, v := range g.Adj(inv[y]) {
				c[perm[v]>>k]++
			}
		}
	})

	// Offsets: block b's arcs take adj[xadj[b<<k]:xadj[(b+1)<<k]], worker 0's
	// first. cnt becomes each (worker, block) pair's cursor.
	most := 0 // arcs of the fullest block, the length of a radix buffer
	for bl := 0; bl < nb; bl++ {
		j := int(xadj[bl<<k])
		for w := 0; w < p; w++ {
			j, cnt[w*nb+bl] = j+cnt[w*nb+bl], j
		}
		most = max(most, j-int(xadj[bl<<k]))
	}

	// Scatter: each worker its ys in order, into its own ranges.
	adj := make([]int32, m)
	idb, mask := idBits(n), int32(1)<<k-1
	parallel(p, func(w int) {
		next := cnt[w*nb : (w+1)*nb]
		for y, end := cut(w), cut(w+1); y < end; y++ {
			for _, v := range g.Adj(inv[y]) {
				x := perm[v]
				adj[next[x>>k]] = int32(uint32(x&mask)<<idb | uint32(y))
				next[x>>k]++
			}
		}
	})

	// Per block: the lists gathered, each staying in the order of its ys.
	far := int32(uint32(1)<<idb - 1)
	var cursor atomic.Int64
	parallel(min(workers(m), nb), func(int) {
		tmp := make([]int32, most)
		for {
			bl := int(cursor.Add(1)) - 1
			if bl >= nb {
				return
			}
			arcs := adj[xadj[bl<<k]:xadj[min((bl+1)<<k, n)]]
			for i, a := range radixSort(arcs, tmp, idb, idb+k) {
				arcs[i] = a & far
			}
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
