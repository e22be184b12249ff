package core

import (
	"fmt"
	"math"
	"slices"

	"micgraph/internal/graph"
	"micgraph/internal/mic"
	"micgraph/internal/perfmodel"
	"micgraph/internal/sched"
)

// Ablation experiments: each isolates one design choice the paper (or this
// reproduction) calls out, holding everything else fixed. Run them with
// `micbench -exp abl-...`. Their cells go through the figures' runner.

// simTimes plays (m, cfg) on every graph's trace at every thread count and
// returns times[ti][gi]. A failed cell reads NaN and is annotated on the
// experiment under series; the row of a point the harness context cut off is
// nil, annotated once an experiment. Ablation cells record no telemetry.
func (e *Experiment) simTimes(h *Harness, m *mic.Machine, cfg mic.Config, series string,
	numGraphs int, threads []int, traceFor func(gi, t int) *mic.Trace) [][]float64 {
	res := h.cells(len(threads)*numGraphs, false, func(i int, _ *mic.SimStats) float64 {
		t, gi := threads[i/numGraphs], i%numGraphs
		return mic.Simulate(m, cfg, t, traceFor(gi, t))
	})
	times := make([][]float64, len(threads))
	for ti, t := range threads {
		point := res[ti*numGraphs : (ti+1)*numGraphs]
		if point[numGraphs-1].attempts == 0 {
			e.cutOff(h)
			break
		}
		times[ti] = make([]float64, numGraphs)
		for gi, r := range point {
			times[ti][gi] = r.time
			if r.err != nil {
				e.Errors = append(e.Errors, CellError{Experiment: e.ID, Series: series,
					Graph: gi, Threads: t, Attempts: r.attempts, Err: r.err})
			}
		}
	}
	return times
}

// ratios returns, point by point of den, the geometric mean over the graphs
// of num/den; a num of one row (a baseline) serves every point. Failed cells
// drop out of the mean and a cut-off point reads 0. The ratio of a single
// graph is reported as it is, not through the mean's exp∘log.
func ratios(num, den [][]float64) []float64 {
	vals := make([]float64, len(den))
	var per []float64
	for ti, d := range den {
		n := num[ti%len(num)]
		if n == nil || d == nil {
			continue
		}
		per = per[:0]
		for gi := range d {
			if r := n[gi] / d[gi]; !math.IsNaN(r) {
				per = append(per, r)
			}
		}
		if vals[ti] = GeoMean(per); len(d) == 1 && len(per) == 1 {
			vals[ti] = per[0]
		}
	}
	return vals
}

// speedup is the curve of (m, cfg) against its own one-thread run.
func (e *Experiment) speedup(h *Harness, m *mic.Machine, cfg mic.Config, series string,
	numGraphs int, threads []int, traceFor func(gi, t int) *mic.Trace) []float64 {
	times := e.simTimes(h, m, cfg, series, numGraphs, append([]int{1}, threads...), traceFor)
	return ratios(times[:1], times[1:])
}

// acrossX turns curves[xi][ti], one speedup curve per x value, into one
// series per thread count over the x axis.
func (e *Experiment) acrossX(xs, threads []int, curves [][]float64) {
	for ti, th := range threads {
		vals := make([]float64, len(xs))
		for xi := range xs {
			vals[xi] = curves[xi][ti]
		}
		e.Series = append(e.Series, Series{Label: fmt.Sprintf("%d threads", th), Threads: xs, Values: vals})
	}
}

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
	curves := make([][]float64, len(sizes))
	traces := make([]*mic.Trace, len(s.Graphs))
	for si, bs := range sizes {
		s.Harness.each(len(traces), func(gi int) {
			traces[gi] = mic.BFSTraceFrom(m, s.Graphs[gi], s.Levels(gi), mic.NaturalOrder, mic.BFSBlockRelaxed, bs)
		})
		curves[si] = exp.speedup(s.Harness, m, ompCfg(sched.Dynamic, bs), fmt.Sprintf("block %d", bs),
			len(traces), threads, func(gi, _ int) *mic.Trace { return traces[gi] })
	}
	exp.acrossX(sizes, threads, curves)
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
	traceAt := coloringTraces(s, m, mic.NaturalOrder, []int{1, 31, 121})
	curves := make([][]float64, len(chunks))
	for ci, chunk := range chunks {
		curves[ci] = exp.speedup(s.Harness, m, ompCfg(sched.Dynamic, chunk), fmt.Sprintf("chunk %d", chunk),
			len(s.Graphs), threads, traceAt)
	}
	exp.acrossX(chunks, threads, curves)
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
	for ways := 1; ways <= m.SMTWays; ways++ {
		mm := *m
		mm.SMTWays = ways
		exp.shuffledColoring(s, &mm, fmt.Sprintf("%d-way SMT", ways), threads)
	}
	return exp
}

// shuffledColoring appends the curve of OpenMP-dynamic coloring on the
// shuffled suite on machine m, thread counts clamped to what m can run (a
// machine cannot run more threads than it has hardware contexts).
func (e *Experiment) shuffledColoring(s *Suite, m *mic.Machine, label string, threads []int) {
	effs := make([]int, len(threads))
	for i, th := range threads {
		effs[i] = min(th, m.MaxThreads())
	}
	traceAt := coloringTraces(s, m, mic.ShuffledOrder, effs)
	e.Series = append(e.Series, Series{Label: label, Threads: threads,
		Values: e.speedup(s.Harness, m, ompCfg(sched.Dynamic, chunkDynamic), label, len(s.Graphs), effs, traceAt)})
}

// AblCacheBonus toggles the shared-cache constructive-interference term —
// the mechanism behind the superlinear Figure 2 speedups.
func AblCacheBonus(s *Suite, m *mic.Machine) *Experiment {
	exp := &Experiment{
		ID:    "abl-bonus",
		Title: "Ablation: shared-cache interference bonus (shuffled coloring)",
		Notes: "With the bonus off, speedup cannot exceed the thread count.",
	}
	off := *m
	off.CacheShareBonus = 0
	exp.shuffledColoring(s, m, "bonus on", ThreadSweep())
	exp.shuffledColoring(s, &off, "bonus off", ThreadSweep())
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
		{"shuffled", func(gi int) float64 { return m.EffectiveMissPerEdge(s.shuffledGraph(gi)) }},
		{"shuffled+RCM", func(gi int) float64 {
			sh := s.shuffledGraph(gi)
			restored, err := sh.Permute(graph.RCMOrder(sh))
			if err != nil {
				panic(err) // RCMOrder always returns a valid permutation
			}
			return m.EffectiveMissPerEdge(restored)
		}},
	}
	cfg := ompCfg(sched.Dynamic, chunkDynamic)
	var nat [][]float64 // serial times under the natural ordering, the first variant
	for _, v := range variants {
		// One ordering, one miss rate, one set of traces per graph.
		traces := make([][]*mic.Trace, len(s.Graphs))
		s.Harness.each(len(traces), func(gi int) {
			traces[gi] = mic.ColoringTraceSweep(m, s.Graphs[gi], v.pick(gi), threads)
		})
		at := func(gi, t int) *mic.Trace { return traces[gi][slices.Index(threads, t)] }
		times := exp.simTimes(s.Harness, m, cfg, v.label, len(traces), threads, at)
		if nat == nil {
			nat = times[:1]
		}
		// At one thread: serial time relative to the natural ordering's.
		vals := append(ratios(times[:1], nat), ratios(times[:1], times[1:])...)
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
	h, ng, cfg := s.Harness, len(s.Graphs), ompCfg(sched.Dynamic, 32)
	variants := []mic.BFSVariant{mic.BFSBlockRelaxed, mic.BFSHybrid}
	labels := []string{"top-down (Block-relaxed)", "hybrid (direction-optimizing)"}
	traces := make([]*mic.Trace, 2*ng)
	h.each(len(traces), func(i int) {
		traces[i] = mic.BFSTraceFrom(m, s.Graphs[i%ng], s.Levels(i%ng), mic.NaturalOrder, variants[i/ng], 32)
	})
	var times [2][][]float64 // at one thread, then at every thread count of the sweep
	for k, label := range labels {
		times[k] = exp.simTimes(h, m, cfg, label, ng, append([]int{1}, threads...),
			func(gi, _ int) *mic.Trace { return traces[k*ng+gi] })
		exp.Series = append(exp.Series, Series{Label: label, Threads: threads, Values: ratios(times[k][:1], times[k][1:])})
	}
	exp.Series = append(exp.Series, Series{Label: "win ratio (td/hybrid time)", Threads: threads,
		Values: ratios(times[0][1:], times[1][1:])})
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
	g, ls := s.Graphs[gi], s.Levels(gi)
	exp.Series = append(exp.Series, Series{Label: "analytical model", Threads: threads,
		Values: modelCurve(ls.Widths(), threads, 32)})

	// Simulator with overheads stripped: zero barriers, atomics, taxes. And
	// the full simulator for contrast.
	bare := *m
	bare.BarrierBase, bare.BarrierPerThread = 0, 0
	bare.AtomicCost, bare.AtomicContPerT, bare.AtomicContSq = 0, 0, 0
	bare.NoiseCore0, bare.CacheShareBonus = 0, 0
	bare.DynamicGrabCost = 0
	exp.bfsCurve(s.Harness, &bare, g, ls, "simulator, overheads off", threads)
	exp.bfsCurve(s.Harness, m, g, ls, "simulator, full", threads)
	return exp
}

// bfsCurve appends the self-relative curve of the relaxed block queue
// (block 32, OpenMP dynamic) on the one graph g.
func (e *Experiment) bfsCurve(h *Harness, m *mic.Machine, g *graph.Graph, ls *mic.BFSLevels, label string, threads []int) {
	tr := mic.BFSTraceFrom(m, g, ls, mic.NaturalOrder, mic.BFSBlockRelaxed, 32)
	e.Series = append(e.Series, Series{Label: label, Threads: threads,
		Values: e.speedup(h, m, ompCfg(sched.Dynamic, 32), label, 1, threads, func(_, _ int) *mic.Trace { return tr })})
}

// modelCurve evaluates the §III-C model on one level-width profile.
func modelCurve(widths []int64, threads []int, blockSize int) []float64 {
	model := make([]float64, len(threads))
	for ti, th := range threads {
		model[ti] = perfmodel.Speedup(widths, th, blockSize)
	}
	return model
}
