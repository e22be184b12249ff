// Package components implements parallel connected components — another
// archetypical irregular graph kernel in the family the paper studies
// ("these three kernels cover a wide range of irregular applications"),
// included to demonstrate that the runtime substrates generalise beyond the
// paper's three. Two algorithms, each about one pass over the arcs of work,
// like the sequential twin they are measured against:
//
//   - label propagation: "take the minimum label of your neighbourhood"
//     until a fixed point, data-driven — a round re-walks only the vertices
//     whose label fell since their last walk, and between two rounds a
//     compress sweep jumps every label to the root it points at, so a label
//     that reached one vertex of a block reaches the vertices pointing at it
//     without a walk; the number of rounds still grows with the distance a
//     label travels against the sweep order;
//   - pointer jumping: Shiloach–Vishkin's hook and jump read asynchronously,
//     as a concurrent union-find — one sweep hooks every edge once, and the
//     jump is the path halving of the finds in between.
//
// Both are Scratch methods (scratch.go) run on the OpenMP-style Team, and
// like Sequential they label a vertex with its component's minimum vertex id.
// Sequential is the twin the parallel kernels are timed against, not their
// oracle: Validate compares a labelling exactly with the minima the graph
// computes once with its own DFS (graph.CheckComponentLabels).
package components

import "micgraph/internal/graph"

// Result reports a components run.
type Result struct {
	Labels []int32 // Labels[v] identifies v's component (minimum vertex id)
	Count  int     // number of components
	// Rounds counts sweeps that walk arcs: label propagation's rounds, each
	// of which walked at least one vertex (none only confirms the fixed
	// point), not the compress sweeps between them; pointer jumping's one
	// hook sweep, not its compress sweep; Sequential's one pass.
	Rounds int
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

// Validate checks that labels[v] is the minimum vertex id of v's component
// for every v. The graph computes those minima on its first check and keeps
// them, so a later call allocates nothing and costs one pass over labels.
func Validate(g *graph.Graph, labels []int32) error {
	return g.CheckComponentLabels(labels)
}
