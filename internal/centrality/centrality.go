// Package centrality implements betweenness centrality (Brandes 2001) on
// top of the parallel BFS kernels — the "computationally expensive
// centrality measures" the paper's introduction gives as the canonical
// BFS-based application.
//
// Two entry points: Exact runs Brandes' algorithm from every source
// (O(V·E), small graphs); Sampled estimates centrality from a subset of
// sources using the paper's block-queue parallel BFS for the forward pass
// and level-parallel sweeps for the path counting and dependency
// accumulation, so the heavy phase scales exactly like the paper's BFS.
package centrality

import (
	"context"

	"micgraph/internal/bfs"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// Exact computes exact betweenness centrality (unweighted, undirected;
// each shortest path counted once per unordered pair). Sequential; intended
// for validation and small graphs.
func Exact(g *graph.Graph) []float64 {
	n := g.NumVertices()
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	sigma := make([]float64, n)
	delta := make([]float64, n)
	dist := make([]int32, n)
	queue := make([]int32, 0, n)

	for s := int32(0); int(s) < n; s++ {
		for v := 0; v < n; v++ {
			sigma[v], delta[v], dist[v] = 0, 0, -1
		}
		sigma[s], dist[s] = 1, 0
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Adj(v) {
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
				}
			}
		}
		// Dependency accumulation in reverse BFS order.
		for i := len(queue) - 1; i > 0; i-- {
			w := queue[i]
			for _, v := range g.Adj(w) {
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			bc[w] += delta[w]
		}
	}
	// Undirected: every pair was counted twice (once per endpoint as
	// source).
	for v := range bc {
		bc[v] /= 2
	}
	return bc
}

// Sampled estimates betweenness from the given source vertices using
// parallel BFS and level-parallel accumulation on team. With sources ==
// all vertices it converges to 2·Exact scaled by... precisely: it returns
// the un-normalised accumulation Σ_s δ_s(v), which equals 2·Exact when
// every vertex is a source. Callers ranking vertices need no normalisation.
func Sampled(g *graph.Graph, sources []int32, team *sched.Team, opts sched.ForOptions) []float64 {
	n := g.NumVertices()
	bc := make([]float64, n)
	if n == 0 || len(sources) == 0 {
		return bc
	}
	sigma := make([]float64, n)
	delta := make([]float64, n)
	scratch := bfs.NewScratch()

	for _, source := range sources {
		// levels aliases the scratch; it is consumed within this iteration.
		res, err := scratch.BlockTeam(context.Background(), g, source, team, opts, bfs.DefaultBlockSize, true)
		if err != nil {
			panic(err) // a loop body panicked; For below would re-panic the same way
		}
		levels := res.Levels

		byLevel := make([][]int32, res.NumLevels)
		for v := 0; v < n; v++ {
			if l := levels[v]; l >= 0 {
				byLevel[l] = append(byLevel[l], int32(v))
			}
		}

		for v := 0; v < n; v++ {
			sigma[v], delta[v] = 0, 0
		}
		sigma[source] = 1
		// Forward: path counts, parallel within each level (all
		// predecessors are one level up, so per-level updates are
		// independent).
		for l := 1; l < res.NumLevels; l++ {
			vs := byLevel[l]
			team.For(len(vs), opts, func(lo, hi, w int) {
				for i := lo; i < hi; i++ {
					v := vs[i]
					var sum float64
					for _, u := range g.Adj(v) {
						if levels[u] == levels[v]-1 {
							sum += sigma[u]
						}
					}
					sigma[v] = sum
				}
			})
		}
		// Backward: dependencies, again parallel within levels.
		for l := res.NumLevels - 1; l > 0; l-- {
			vs := byLevel[l]
			team.For(len(vs), opts, func(lo, hi, w int) {
				for i := lo; i < hi; i++ {
					v := vs[i]
					var sum float64
					for _, u := range g.Adj(v) {
						if levels[u] == levels[v]+1 && sigma[u] > 0 {
							sum += sigma[v] / sigma[u] * (1 + delta[u])
						}
					}
					delta[v] = sum
				}
			})
		}
		for v := 0; v < n; v++ {
			if int32(v) != source {
				bc[v] += delta[v]
			}
		}
	}
	return bc
}

// AllSources returns [0..n) for exact sampled runs.
func AllSources(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// EverySource returns every k-th vertex as a deterministic sample.
func EverySource(n, k int) []int32 {
	if k < 1 {
		k = 1
	}
	out := make([]int32, 0, n/k+1)
	for i := 0; i < n; i += k {
		out = append(out, int32(i))
	}
	return out
}
