package core

import (
	"slices"

	"micgraph/internal/gen"
	"micgraph/internal/mic"
	"micgraph/internal/sched"
)

// ExtraRMAT runs the kernels on a Graph 500-style RMAT power-law graph —
// outside the paper's FEM suite, demonstrating how the framework behaves on
// the other major irregular-graph class: skewed degrees (heavy hubs) and a
// shallow, wide BFS level structure. scaleLog2 derives from the suite's
// shrink factor so tests stay fast.
func ExtraRMAT(s *Suite, m *mic.Machine) *Experiment {
	threads := ThreadSweep()
	exp := &Experiment{
		ID:    "extra-rmat",
		Title: "Beyond the paper: kernels on an RMAT power-law graph",
		Notes: "RMAT a=0.57 b=c=0.19 (Graph 500); shallow wide BFS levels vs the FEM meshes' long thin profiles.",
	}

	logN := 17
	for f := s.Scale; f > 1; f /= 2 {
		logN -= 2
	}
	g := gen.RMAT(max(logN, 10), 16, 0.57, 0.19, 0.19, 777)
	// BFS-based kernels want the giant component (RMAT leaves isolated
	// vertices that would never be reached).
	g, _ = g.LargestComponent()
	ls := mic.NewBFSLevels(g, int32(g.NumVertices()/2))

	// Coloring, OpenMP dynamic (hub degrees stress the load balancer).
	colorTraces := mic.ColoringTraceSweep(m, g, m.MissPerEdge(mic.NaturalOrder), threads)
	exp.Series = append(exp.Series, Series{Label: "coloring OpenMP-dynamic", Threads: threads,
		Values: exp.speedup(s.Harness, m, ompCfg(sched.Dynamic, chunkDynamic), "coloring OpenMP-dynamic", 1, threads,
			func(_, t int) *mic.Trace { return colorTraces[slices.Index(threads, t)] })})

	exp.bfsCurve(s.Harness, m, g, ls, "BFS Block-relaxed", threads)

	// Analytical model: RMAT's wide levels should permit far more BFS
	// parallelism than pwtk's ribbon.
	exp.Series = append(exp.Series, Series{Label: "BFS model", Threads: threads, Values: modelCurve(ls.Widths(), threads, 32)})
	return exp
}

// ExtraKNC projects the paper's Figure 2 (shuffled coloring, the kernel
// that scales best) onto the anticipated Knights Corner part — the paper
// closes with "we are looking forward to perform more evaluation on the
// final design". Thread axis extends to KNC's 240 hardware threads.
func ExtraKNC(s *Suite, knc *mic.Machine) *Experiment {
	threads := []int{1}
	for t := 20; t <= knc.MaxThreads(); t += 20 {
		threads = append(threads, t)
	}
	exp := &Experiment{
		ID:    "extra-knc",
		Title: "Beyond the paper: shuffled coloring projected onto Knights Corner (60 cores x 4 SMT)",
		Notes: "Same cost model as KNF with a longer ring and scaled bandwidth; the paper anticipated >50 cores.",
	}
	exp.shuffledColoring(s, knc, "OpenMP-dynamic on KNC", threads)
	// The KNF curve on the same axis, clamped to its 124 hardware threads.
	exp.shuffledColoring(s, mic.KNF(), "OpenMP-dynamic on KNF", threads)
	return exp
}
