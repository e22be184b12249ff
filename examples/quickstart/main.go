// Quickstart: generate one of the paper's test-graph stand-ins, color it
// sequentially and in parallel, run a parallel BFS, and evaluate the
// paper's analytical BFS speedup model — the whole public API.
package main

import (
	"fmt"
	"log"

	"micgraph"
)

func main() {
	// A 16x-shrunk "pwtk" (the paper's 267-level outlier graph).
	g, err := micgraph.SuiteGraph("pwtk", 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %s\n", g)

	// Sequential First-Fit greedy (Algorithm 1) vs the iterative parallel
	// speculative coloring (Algorithms 2-4) on the default OpenMP-style team.
	seq, err := micgraph.Run("coloring", "seq", g, 1)
	if err != nil {
		log.Fatal(err)
	}
	par, err := micgraph.Run("coloring", "", g, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coloring: sequential %d colors; parallel %d colors in %d rounds (conflicts per round: %v)\n",
		seq.Coloring.NumColors, par.Coloring.NumColors, par.Coloring.Rounds, par.Coloring.Conflicts)

	// Layered parallel BFS with the paper's block-accessed relaxed queue,
	// from vertex |V|/2 as in Table I.
	out, err := micgraph.Run("bfs", "", g, 4)
	if err != nil {
		log.Fatal(err)
	}
	res := out.BFS
	fmt.Printf("bfs: %d levels from vertex %d; %d entries processed, %d redundant (relaxed queue)\n",
		res.NumLevels, g.NumVertices()/2, res.Processed, res.Duplicates)

	// The §III-C model: how much speedup this graph's level structure
	// permits on the 124-hardware-thread MIC, and where it saturates.
	for _, t := range []int{1, 13, 31, 124} {
		fmt.Printf("model: achievable BFS speedup at %3d threads = %.2f\n",
			t, micgraph.AchievableBFSSpeedup(res.Widths, t, 32))
	}
}
