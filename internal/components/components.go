// Package components implements parallel connected components — another
// archetypical irregular graph kernel in the family the paper studies
// ("these three kernels cover a wide range of irregular applications"),
// included to demonstrate that the runtime substrates generalise beyond the
// paper's three. Two algorithms:
//
//   - label propagation: iterate "take the minimum label of your
//     neighborhood" until a fixed point — the same gather/scatter pattern
//     as the irregular microbenchmark;
//   - pointer jumping (Shiloach–Vishkin style hook + compress): the classic
//     PRAM algorithm, O(log V) rounds, heavier on atomics.
//
// Both are Scratch methods (scratch.go), run on the OpenMP-style Team and
// validate against the Sequential reference.
package components

import "micgraph/internal/graph"

// Result reports a components run.
type Result struct {
	Labels []int32 // Labels[v] identifies v's component (minimum vertex id)
	Count  int     // number of components
	Rounds int     // parallel rounds until the fixed point
}

// Sequential labels every vertex with the smallest vertex id in its
// component (BFS-based reference implementation).
func Sequential(g *graph.Graph) Result {
	n := g.NumVertices()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	count := 0
	queue := make([]int32, 0, 1024)
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		count++
		root := int32(s)
		labels[s] = root
		queue = append(queue[:0], root)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Adj(v) {
				if labels[w] == -1 {
					labels[w] = root
					queue = append(queue, w)
				}
			}
		}
	}
	return Result{Labels: labels, Count: count, Rounds: 1}
}

func countRoots(labels []int32) int {
	count := 0
	for v, l := range labels {
		if int32(v) == l {
			count++
		}
	}
	return count
}

// Validate checks labels against the sequential reference: two vertices
// must share a label exactly when they share a component.
func Validate(g *graph.Graph, labels []int32) error {
	ref := Sequential(g)
	return graph.CompareLabelings(ref.Labels, labels)
}
