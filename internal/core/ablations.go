package core

import (
	"fmt"

	"micgraph/internal/graph"
	"micgraph/internal/mic"
	"micgraph/internal/perfmodel"
	"micgraph/internal/sched"
)

// Ablation experiments: each isolates one design choice the paper (or this
// reproduction) calls out, holding everything else fixed. Run them with
// `micbench -exp abl-...`.

// AblBlockSize sweeps the BFS block-accessed queue's block size — the
// trade-off §IV-C describes: "by keeping the block size small (but not so
// small so that we do not use atomics too often), the overhead is
// minimized". The paper's winner is 32.
func AblBlockSize(s *Suite, m *mic.Machine) *Experiment {
	sizes := []int{4, 8, 16, 32, 64, 128, 256}
	threads := []int{31, 61, 121}
	exp := &Experiment{
		ID:    "abl-blocksize",
		Title: "Ablation: BFS block size (relaxed queue, OpenMP dynamic)",
		Notes: "Values are geometric-mean speedups across the suite; the paper's best block size is 32.",
	}
	// The trace depends on the block size, not on the thread count: build
	// each once and play it at every thread count.
	vals := grid(len(threads), len(sizes))
	per := grid(len(threads), len(s.Graphs))
	for si, bs := range sizes {
		cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: bs}
		for gi, g := range s.Graphs {
			src := int32(g.NumVertices() / 2)
			tr := mic.BFSTrace(m, g, src, mic.NaturalOrder, mic.BFSBlockRelaxed, bs)
			base := mic.Simulate(m, cfg, 1, tr)
			for ti, th := range threads {
				per[ti][gi] = base / mic.Simulate(m, cfg, th, tr)
			}
		}
		for ti := range threads {
			vals[ti][si] = GeoMean(per[ti])
		}
	}
	for ti, th := range threads {
		exp.Series = append(exp.Series, Series{
			Label: fmt.Sprintf("%d threads", th), Threads: sizes, Values: vals[ti],
		})
	}
	return exp
}

// AblChunkSize sweeps the OpenMP dynamic chunk size for coloring — §V-B:
// "Different chunk sizes (from 40 to 150) were tried and only the best
// results are reported ... the dynamic scheduling policy performs better
// with a chunk size of 100."
func AblChunkSize(s *Suite, m *mic.Machine) *Experiment {
	chunks := []int{10, 25, 40, 100, 150, 400, 1000}
	threads := []int{31, 121}
	exp := &Experiment{
		ID:    "abl-chunk",
		Title: "Ablation: OpenMP dynamic chunk size for coloring",
		Notes: "The x column is the chunk size; the paper's best is 100.",
	}
	traceAt := coloringTraces(m, s.Graphs, mic.NaturalOrder, []int{1, 31, 121})
	for _, th := range threads {
		vals := make([]float64, len(chunks))
		for ci, chunk := range chunks {
			per := make([]float64, len(s.Graphs))
			for gi := range s.Graphs {
				cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: chunk}
				base := mic.Simulate(m, cfg, 1, traceAt(gi, 1))
				per[gi] = base / mic.Simulate(m, cfg, th, traceAt(gi, th))
			}
			vals[ci] = GeoMean(per)
		}
		exp.Series = append(exp.Series, Series{
			Label: fmt.Sprintf("%d threads", th), Threads: chunks, Values: vals,
		})
	}
	return exp
}

// AblSMT re-runs the shuffled coloring with the machine's SMT width forced
// to 1..4 hardware threads per core — isolating the paper's headline
// mechanism: without SMT the memory-bound kernel cannot scale past the
// core count.
func AblSMT(s *Suite, m *mic.Machine) *Experiment {
	threads := ThreadSweep()
	exp := &Experiment{
		ID:    "abl-smt",
		Title: "Ablation: SMT ways (shuffled coloring, OpenMP dynamic)",
		Notes: "Threads beyond cores × ways are clamped to the hardware limit.",
	}
	graphs := s.Shuffled()
	for ways := 1; ways <= m.SMTWays; ways++ {
		mm := *m
		mm.SMTWays = ways
		effs := clampThreads(threads, mm.MaxThreads())
		traceAt := coloringTraces(&mm, graphs, mic.ShuffledOrder, effs)
		vals := make([]float64, len(threads))
		for ti, eff := range effs {
			per := make([]float64, len(graphs))
			for gi := range graphs {
				cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 100}
				base := mic.Simulate(&mm, cfg, 1, traceAt(gi, 1))
				per[gi] = base / mic.Simulate(&mm, cfg, eff, traceAt(gi, eff))
			}
			vals[ti] = GeoMean(per)
		}
		exp.Series = append(exp.Series, Series{
			Label: fmt.Sprintf("%d-way SMT", ways), Threads: threads, Values: vals,
		})
	}
	return exp
}

// grid returns a rows × cols matrix of zeros.
func grid(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}

// clampThreads returns threads with every count above limit replaced by it
// (a machine cannot run more threads than it has hardware contexts).
func clampThreads(threads []int, limit int) []int {
	out := make([]int, len(threads))
	for i, th := range threads {
		out[i] = min(th, limit)
	}
	return out
}

// AblCacheBonus toggles the shared-cache constructive-interference term —
// the mechanism behind the superlinear Figure 2 speedups.
func AblCacheBonus(s *Suite, m *mic.Machine) *Experiment {
	threads := ThreadSweep()
	exp := &Experiment{
		ID:    "abl-bonus",
		Title: "Ablation: shared-cache interference bonus (shuffled coloring)",
		Notes: "With the bonus off, speedup cannot exceed the thread count.",
	}
	graphs := s.Shuffled()
	for _, on := range []bool{true, false} {
		mm := *m
		label := "bonus on"
		if !on {
			mm.CacheShareBonus = 0
			label = "bonus off"
		}
		traceAt := coloringTraces(&mm, graphs, mic.ShuffledOrder, threads)
		vals := make([]float64, len(threads))
		for ti, th := range threads {
			per := make([]float64, len(graphs))
			for gi := range graphs {
				cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 100}
				base := mic.Simulate(&mm, cfg, 1, traceAt(gi, 1))
				per[gi] = base / mic.Simulate(&mm, cfg, th, traceAt(gi, th))
			}
			vals[ti] = GeoMean(per)
		}
		exp.Series = append(exp.Series, Series{Label: label, Threads: threads, Values: vals})
	}
	return exp
}

// AblOrdering scores vertex orderings between the paper's two extremes:
// natural, randomly shuffled, and shuffled-then-RCM-reordered graphs. The
// miss rate is derived from the measured bandwidth of each ordering
// (mic.EffectiveMissPerEdge), so RCM's locality restoration shows up as a
// 1-thread time close to natural and speedup between the two curves.
func AblOrdering(s *Suite, m *mic.Machine) *Experiment {
	threads := []int{1, 31, 61, 121}
	exp := &Experiment{
		ID:    "abl-ordering",
		Title: "Ablation: vertex ordering (coloring; natural vs shuffled vs RCM-restored)",
		Notes: "Values at 1 thread are relative times vs natural (higher = slower); at >1 threads, speedups vs the ordering's own 1-thread time.",
	}
	type variant struct {
		label string
		pick  func(gi int) (miss float64)
	}
	variants := []variant{
		{"natural", func(gi int) float64 { return m.EffectiveMissPerEdge(s.Graphs[gi]) }},
		{"shuffled", func(gi int) float64 { return m.EffectiveMissPerEdge(s.Shuffled()[gi]) }},
		{"shuffled+RCM", func(gi int) float64 {
			sh := s.Shuffled()[gi]
			restored, err := sh.Permute(graph.RCMOrder(sh))
			if err != nil {
				panic(err) // RCMOrder always returns a valid permutation
			}
			return m.EffectiveMissPerEdge(restored)
		}},
	}
	cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 100}
	nat := make([]float64, len(s.Graphs)) // serial time under the natural ordering
	for gi, g := range s.Graphs {
		nat[gi] = mic.Simulate(m, cfg, 1, mic.ColoringTraceMiss(m, g, m.EffectiveMissPerEdge(g), 1))
	}
	for _, v := range variants {
		per := grid(len(threads), len(s.Graphs))
		for gi, g := range s.Graphs {
			// One ordering, one miss rate, one set of traces per graph.
			traces := mic.ColoringTraceSweep(m, g, v.pick(gi), threads)
			base := mic.Simulate(m, cfg, 1, traces[0])
			for ti, th := range threads {
				if th == 1 {
					// Relative serial time vs the natural ordering.
					per[ti][gi] = base / nat[gi]
				} else {
					per[ti][gi] = base / mic.Simulate(m, cfg, th, traces[ti])
				}
			}
		}
		vals := make([]float64, len(threads))
		for ti := range threads {
			vals[ti] = GeoMean(per[ti])
		}
		exp.Series = append(exp.Series, Series{Label: v.label, Threads: threads, Values: vals})
	}
	return exp
}

// AblDirection contrasts the direction-optimizing BFS (mic.BFSHybrid,
// Beamer-style α/β switching as implemented in internal/bfs) with the pure
// top-down relaxed-block traversal it switches away from. Two speedup
// curves show how each variant scales; the third series is the per-thread
// simulated-time ratio top-down/hybrid — above 1.0 means the bottom-up
// middle levels pay for themselves on that thread count.
func AblDirection(s *Suite, m *mic.Machine) *Experiment {
	threads := ThreadSweep()
	exp := &Experiment{
		ID:    "abl-direction",
		Title: "Ablation: direction-optimizing BFS vs pure top-down",
		Notes: "Geometric means across the suite; sources at |V|/2. The win ratio is simulated top-down time over hybrid time at equal thread count.",
	}
	cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 32}
	type pair struct{ td, hy *mic.Trace }
	traces := make([]pair, len(s.Graphs))
	for gi, g := range s.Graphs {
		src := int32(g.NumVertices() / 2)
		traces[gi] = pair{
			td: mic.BFSTrace(m, g, src, mic.NaturalOrder, mic.BFSBlockRelaxed, 32),
			hy: mic.BFSTrace(m, g, src, mic.NaturalOrder, mic.BFSHybrid, 32),
		}
	}
	tdSpeed := make([]float64, len(threads))
	hySpeed := make([]float64, len(threads))
	win := make([]float64, len(threads))
	for ti, th := range threads {
		perTD := make([]float64, len(s.Graphs))
		perHY := make([]float64, len(s.Graphs))
		perWin := make([]float64, len(s.Graphs))
		for gi := range s.Graphs {
			baseTD := mic.Simulate(m, cfg, 1, traces[gi].td)
			baseHY := mic.Simulate(m, cfg, 1, traces[gi].hy)
			tTD := mic.Simulate(m, cfg, th, traces[gi].td)
			tHY := mic.Simulate(m, cfg, th, traces[gi].hy)
			perTD[gi] = baseTD / tTD
			perHY[gi] = baseHY / tHY
			perWin[gi] = tTD / tHY
		}
		tdSpeed[ti] = GeoMean(perTD)
		hySpeed[ti] = GeoMean(perHY)
		win[ti] = GeoMean(perWin)
	}
	exp.Series = append(exp.Series,
		Series{Label: "top-down (Block-relaxed)", Threads: threads, Values: tdSpeed},
		Series{Label: "hybrid (direction-optimizing)", Threads: threads, Values: hySpeed},
		Series{Label: "win ratio (td/hybrid time)", Threads: threads, Values: win},
	)
	return exp
}

// AblModelVsSim contrasts the paper's analytical BFS model with the full
// simulator at matching assumptions (no overheads in the model): the model
// is exactly the simulator with uniform vertex costs, zero overheads, and
// no SMT — the "five unrealistic assumptions" of §III-C.
func AblModelVsSim(s *Suite, m *mic.Machine) *Experiment {
	threads := ThreadSweep()
	exp := &Experiment{
		ID:    "abl-model",
		Title: "Ablation: analytical model vs simulator (BFS, pwtk)",
	}
	gi := s.indexOf("pwtk")
	g := s.Graphs[gi]
	src := int32(g.NumVertices() / 2)
	widths := g.LevelWidths(src)

	model := make([]float64, len(threads))
	for ti, th := range threads {
		model[ti] = perfmodel.Speedup(widths, th, 32)
	}
	exp.Series = append(exp.Series, Series{Label: "analytical model", Threads: threads, Values: model})

	// Simulator with overheads stripped: zero barriers, atomics, taxes.
	mm := *m
	mm.BarrierBase, mm.BarrierPerThread = 0, 0
	mm.AtomicCost, mm.AtomicContPerT, mm.AtomicContSq = 0, 0, 0
	mm.NoiseCore0, mm.CacheShareBonus = 0, 0
	mm.DynamicGrabCost = 0
	tr := mic.BFSTrace(&mm, g, src, mic.NaturalOrder, mic.BFSBlockRelaxed, 32)
	cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 32}
	sim := make([]float64, len(threads))
	base := mic.Simulate(&mm, cfg, 1, tr)
	for ti, th := range threads {
		sim[ti] = base / mic.Simulate(&mm, cfg, th, tr)
	}
	exp.Series = append(exp.Series, Series{Label: "simulator, overheads off", Threads: threads, Values: sim})

	// And the full simulator for contrast.
	trFull := mic.BFSTrace(m, g, src, mic.NaturalOrder, mic.BFSBlockRelaxed, 32)
	full := make([]float64, len(threads))
	baseFull := mic.Simulate(m, cfg, 1, trFull)
	for ti, th := range threads {
		full[ti] = baseFull / mic.Simulate(m, cfg, th, trFull)
	}
	exp.Series = append(exp.Series, Series{Label: "simulator, full", Threads: threads, Values: full})
	return exp
}
