package core

import (
	"micgraph/internal/gen"
	"micgraph/internal/mic"
	"micgraph/internal/perfmodel"
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
	if logN < 10 {
		logN = 10
	}
	g := gen.RMAT(logN, 16, 0.57, 0.19, 0.19, 777)
	// BFS-based kernels want the giant component (RMAT leaves isolated
	// vertices that would never be reached).
	g, _ = g.LargestComponent()
	src := int32(g.NumVertices() / 2)

	// Coloring, OpenMP dynamic (hub degrees stress the load balancer).
	colorVals := make([]float64, len(threads))
	cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 100}
	colorTraces := mic.ColoringTraceSweep(m, g, m.MissPerEdge(mic.NaturalOrder), threads)
	colorBase := mic.Simulate(m, cfg, 1, colorTraces[0])
	for ti, th := range threads {
		colorVals[ti] = colorBase / mic.Simulate(m, cfg, th, colorTraces[ti])
	}
	exp.Series = append(exp.Series, Series{Label: "coloring OpenMP-dynamic", Threads: threads, Values: colorVals})

	// BFS block-relaxed.
	bfsCfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 32}
	tr := mic.BFSTrace(m, g, src, mic.NaturalOrder, mic.BFSBlockRelaxed, 32)
	bfsBase := mic.Simulate(m, bfsCfg, 1, tr)
	bfsVals := make([]float64, len(threads))
	for ti, th := range threads {
		bfsVals[ti] = bfsBase / mic.Simulate(m, bfsCfg, th, tr)
	}
	exp.Series = append(exp.Series, Series{Label: "BFS Block-relaxed", Threads: threads, Values: bfsVals})

	// Analytical model: RMAT's wide levels should permit far more BFS
	// parallelism than pwtk's ribbon.
	widths := g.LevelWidths(src)
	model := make([]float64, len(threads))
	for ti, th := range threads {
		model[ti] = perfmodel.Speedup(widths, th, 32)
	}
	exp.Series = append(exp.Series, Series{Label: "BFS model", Threads: threads, Values: model})
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
	graphs := s.Shuffled()
	cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 100}
	kncTrace := coloringTraces(knc, graphs, mic.ShuffledOrder, threads)
	vals := make([]float64, len(threads))
	for ti, th := range threads {
		per := make([]float64, len(graphs))
		for gi := range graphs {
			base := mic.Simulate(knc, cfg, 1, kncTrace(gi, 1))
			per[gi] = base / mic.Simulate(knc, cfg, th, kncTrace(gi, th))
		}
		vals[ti] = GeoMean(per)
	}
	exp.Series = append(exp.Series, Series{Label: "OpenMP-dynamic on KNC", Threads: threads, Values: vals})

	// The KNF curve on the same axis for comparison (clamped to its 124
	// hardware threads).
	knf := KNFForComparison()
	effs := clampThreads(threads, knf.MaxThreads())
	knfTrace := coloringTraces(knf, graphs, mic.ShuffledOrder, effs)
	knfVals := make([]float64, len(threads))
	for ti, eff := range effs {
		per := make([]float64, len(graphs))
		for gi := range graphs {
			base := mic.Simulate(knf, cfg, 1, knfTrace(gi, 1))
			per[gi] = base / mic.Simulate(knf, cfg, eff, knfTrace(gi, eff))
		}
		knfVals[ti] = GeoMean(per)
	}
	exp.Series = append(exp.Series, Series{Label: "OpenMP-dynamic on KNF", Threads: threads, Values: knfVals})
	return exp
}

// KNFForComparison returns the baseline KNF machine (indirection so extras
// stay testable with custom machines).
func KNFForComparison() *mic.Machine { return mic.KNF() }
