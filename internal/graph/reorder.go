package graph

import (
	"cmp"
	"slices"
)

// A locality-restoring reordering. The paper's Figure 2 shows how much the
// kernels depend on vertex-ordering locality (its reference [21], Strout &
// Hovland, studies exactly these reordering transformations). RCM is the
// classical bandwidth-reducing ordering used on FEM matrices like the test
// suite. It returns a permutation suitable for Graph.Permute: perm[v] is the
// new id of old vertex v.

// RCMOrder computes a Reverse Cuthill–McKee permutation: BFS from a
// pseudo-peripheral vertex of each component, visiting neighbors in
// increasing-degree order, then reversing the numbering. Applying it to a
// shuffled graph largely restores the natural-order locality.
func RCMOrder(g *Graph) []int32 {
	n := g.NumVertices()
	perm := make([]int32, n)
	visited := make([]bool, n)
	sequence := make([]int32, 0, n)
	scratch := make([]int32, 0, 64)

	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		src := pseudoPeripheral(g, int32(start))
		// BFS with degree-sorted neighbor expansion.
		head := len(sequence)
		visited[src] = true
		sequence = append(sequence, src)
		for head < len(sequence) {
			v := sequence[head]
			head++
			scratch = scratch[:0]
			for _, w := range g.Adj(v) {
				if !visited[w] {
					visited[w] = true
					scratch = append(scratch, w)
				}
			}
			slices.SortFunc(scratch, func(v, w int32) int {
				return cmp.Compare(g.Degree(v), g.Degree(w))
			})
			sequence = append(sequence, scratch...)
		}
	}
	// Reverse: the last BFS vertex gets id 0.
	for i, v := range sequence {
		perm[v] = int32(n - 1 - i)
	}
	return perm
}

// pseudoPeripheral finds an approximate farthest vertex of start's
// component by repeated BFS sweeps (George–Liu heuristic), preferring
// low-degree vertices on the last level.
func pseudoPeripheral(g *Graph, start int32) int32 {
	cur := start
	lastEcc := -1
	for iter := 0; iter < 8; iter++ {
		levels, nl := g.Levels(cur)
		ecc := nl - 1
		if ecc <= lastEcc {
			return cur
		}
		lastEcc = ecc
		// Lowest-degree vertex on the farthest level.
		best := cur
		bestDeg := int(^uint(0) >> 1)
		for v := 0; v < g.NumVertices(); v++ {
			if levels[v] == int32(ecc) && g.Degree(int32(v)) < bestDeg {
				best = int32(v)
				bestDeg = g.Degree(int32(v))
			}
		}
		cur = best
	}
	return cur
}

// Bandwidth returns the matrix bandwidth of the graph under its current
// numbering: max |u - v| over edges. Reorderings are judged by how much
// they shrink it.
func (g *Graph) Bandwidth() int64 {
	var bw int64
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Adj(int32(v))
		if len(adj) == 0 {
			continue
		}
		// Adjacency is sorted: the extremes give the max distance.
		lo := int64(v) - int64(adj[0])
		hi := int64(adj[len(adj)-1]) - int64(v)
		if lo > bw {
			bw = lo
		}
		if hi > bw {
			bw = hi
		}
	}
	return bw
}
