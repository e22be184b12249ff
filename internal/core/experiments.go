package core

import (
	"fmt"
	"slices"

	"micgraph/internal/coloring"
	"micgraph/internal/mic"
	"micgraph/internal/perfmodel"
	"micgraph/internal/sched"
)

// Chunk sizes reported best in §V-B: dynamic 100, static 40, guided 100 for
// OpenMP; grain 100 for Cilk; minimum chunk 40 for TBB.
const (
	chunkDynamic = 100
	chunkStatic  = 40
	chunkGuided  = 100
	grainCilk    = 100
	grainTBB     = 40
)

func ompCfg(p sched.Policy, chunk int) mic.Config {
	return mic.Config{Kind: mic.OpenMP, Policy: p, Chunk: chunk}
}

func tbbCfg(p sched.Partitioner, grain int) mic.Config {
	return mic.Config{Kind: mic.TBB, Partitioner: p, Chunk: grain}
}

func cilkCfg(grain int) mic.Config {
	return mic.Config{Kind: mic.Cilk, Chunk: grain}
}

// Table1 regenerates Table I: the structural properties of the test graphs,
// including the sequential greedy color count and the BFS level count from
// vertex |V|/2.
func Table1(s *Suite) *Experiment {
	exp := &Experiment{
		ID:    "table1",
		Title: "Properties of the test graphs (Table I)",
		Notes: "Colors: sequential First-Fit greedy, natural order. Levels: BFS from vertex |V|/2.",
	}
	exp.Rows = make([]TableRow, len(s.Graphs))
	done := s.Harness.each(len(s.Graphs), func(i int) {
		g, cfg := s.Graphs[i], s.Configs[i]
		exp.Rows[i] = TableRow{
			Name:     cfg.Name,
			V:        g.NumVertices(),
			E:        g.NumEdges(),
			MaxDeg:   g.MaxDegree(),
			Colors:   coloring.SeqGreedy(g).NumColors,
			Levels:   len(s.Levels(i).Order),
			PaperCol: cfg.PaperColors,
			PaperLev: cfg.PaperLevels,
		}
	})
	if exp.Rows = exp.Rows[:done]; done < len(s.Graphs) {
		exp.cutOff(s.Harness)
	}
	return exp
}

// coloringExperiment runs one coloring figure: the given configs on the
// suite's graphs (natural or shuffled), geometric mean across the suite.
func coloringExperiment(s *Suite, m *mic.Machine, id, title string,
	o mic.Ordering, configs []mic.Config, labels []string) *Experiment {

	threads := ThreadSweep()
	exp := &Experiment{ID: id, Title: title}
	// Coloring traces depend on t (conflict rounds) but not on the config.
	traceAt := coloringTraces(s, m, o, threads)
	exp.sweep(s.Harness, m, configs, labels, len(s.Graphs), threads,
		func(gi, _, t int) *mic.Trace { return traceAt(gi, t) })
	return exp
}

// sweep runs speedupCurves and books its series, annotations and telemetry on
// the experiment, with at most one cutoff annotation however many sweeps an
// experiment makes.
func (e *Experiment) sweep(h *Harness, m *mic.Machine, configs []mic.Config, labels []string,
	numGraphs int, threads []int, traceFor func(gi, ci, t int) *mic.Trace) {
	series, errs, cells := speedupCurves(h, m, configs, labels, numGraphs, threads, traceFor)
	e.Series = append(e.Series, series...)
	for _, ce := range errs {
		if ce.Graph == -1 {
			e.cutOff(h)
			continue
		}
		ce.Experiment = e.ID
		e.Errors = append(e.Errors, ce)
	}
	e.Cells = append(e.Cells, stampCells(e.ID, cells)...)
}

// cutOff marks, once, that the harness context ended before the experiment did.
func (e *Experiment) cutOff(h *Harness) {
	if n := len(e.Errors); n == 0 || e.Errors[n-1].Graph != -1 {
		e.Errors = append(e.Errors, CellError{Experiment: e.ID, Graph: -1, Err: h.cancelled()})
	}
}

// coloringTraces builds, graph by graph on every processor, the coloring
// traces of the suite's graphs under ordering o at every thread count of
// threads, and returns the lookup of graph gi's trace at thread count t. A
// graph's traces share round one (mic.ColoringTraceSweep), so a sweep holds one
// copy of the graph-sized phases per graph, not one per thread count.
func coloringTraces(s *Suite, m *mic.Machine, o mic.Ordering, threads []int) func(gi, t int) *mic.Trace {
	sweeps := make([][]*mic.Trace, len(s.Graphs))
	s.Harness.each(len(sweeps), func(gi int) {
		g := s.Graphs[gi]
		if o == mic.ShuffledOrder {
			g = s.shuffledGraph(gi)
		}
		sweeps[gi] = mic.ColoringTraceSweep(m, g, m.MissPerEdge(o), threads)
	})
	return func(gi, t int) *mic.Trace { return sweeps[gi][slices.Index(threads, t)] }
}

// Fig1a: coloring with OpenMP under the three scheduling policies,
// naturally ordered graphs.
func Fig1a(s *Suite, m *mic.Machine) *Experiment {
	return coloringExperiment(s, m, "fig1a",
		"Coloring speedup, OpenMP scheduling policies (Figure 1a)",
		mic.NaturalOrder,
		[]mic.Config{
			ompCfg(sched.Dynamic, chunkDynamic),
			ompCfg(sched.Static, chunkStatic),
			ompCfg(sched.Guided, chunkGuided),
		},
		[]string{"OpenMP-dynamic", "OpenMP-static", "OpenMP-guided"})
}

// Fig1b: coloring with Cilk Plus, worker-id vs holder localFC. The two
// variants differ only in TLS mechanics, which the paper found nearly
// indistinguishable; the simulator charges the holder a slightly higher
// per-chunk cost (lazy view lookup).
func Fig1b(s *Suite, m *mic.Machine) *Experiment {
	cfgs := []mic.Config{cilkCfg(grainCilk), cilkCfg(grainCilk + 1)}
	return coloringExperiment(s, m, "fig1b",
		"Coloring speedup, Cilk Plus variants (Figure 1b)",
		mic.NaturalOrder, cfgs,
		[]string{"CilkPlus", "CilkPlus-holder"})
}

// Fig1c: coloring with TBB under the three partitioners.
func Fig1c(s *Suite, m *mic.Machine) *Experiment {
	return coloringExperiment(s, m, "fig1c",
		"Coloring speedup, TBB partitioners (Figure 1c)",
		mic.NaturalOrder,
		[]mic.Config{
			tbbCfg(sched.SimplePartitioner, grainTBB),
			tbbCfg(sched.AutoPartitioner, grainTBB),
			tbbCfg(sched.AffinityPartitioner, grainTBB),
		},
		[]string{"TBB-simple", "TBB-auto", "TBB-affinity"})
}

// Fig2: coloring on randomly shuffled graphs, best variant per programming
// model (OpenMP-dynamic, TBB-simple, CilkPlus-holder).
func Fig2(s *Suite, m *mic.Machine) *Experiment {
	return coloringExperiment(s, m, "fig2",
		"Coloring speedup on randomly ordered graphs (Figure 2)",
		mic.ShuffledOrder,
		[]mic.Config{
			ompCfg(sched.Dynamic, chunkDynamic),
			tbbCfg(sched.SimplePartitioner, grainTBB),
			cilkCfg(grainCilk),
		},
		[]string{"OpenMP", "TBB", "CilkPlus"})
}

// irregularExperiment runs one Figure 3 panel: a single runtime config,
// curves for iter ∈ {1,3,5,10}, speedups computed "relatively to the same
// number of iterations".
func irregularExperiment(s *Suite, m *mic.Machine, id, title string, cfg mic.Config) *Experiment {
	threads := ThreadSweep()
	iters := []int{1, 3, 5, 10}
	exp := &Experiment{ID: id, Title: title}
	for _, iter := range iters {
		traces := make([]*mic.Trace, len(s.Graphs))
		s.Harness.each(len(traces), func(gi int) {
			traces[gi] = mic.IrregularTrace(m, s.Graphs[gi], mic.NaturalOrder, iter)
		})
		exp.sweep(s.Harness, m, []mic.Config{cfg},
			[]string{fmt.Sprintf("%d iteration(s)", iter)},
			len(s.Graphs), threads,
			func(gi, _, _ int) *mic.Trace { return traces[gi] })
	}
	return exp
}

// Fig3a: irregular computation with OpenMP (dynamic policy).
func Fig3a(s *Suite, m *mic.Machine) *Experiment {
	return irregularExperiment(s, m, "fig3a",
		"Irregular computation speedup, OpenMP dynamic (Figure 3a)",
		ompCfg(sched.Dynamic, chunkDynamic))
}

// Fig3b: irregular computation with Cilk Plus.
func Fig3b(s *Suite, m *mic.Machine) *Experiment {
	return irregularExperiment(s, m, "fig3b",
		"Irregular computation speedup, Cilk Plus (Figure 3b)",
		cilkCfg(grainCilk))
}

// Fig3c: irregular computation with TBB (simple partitioner).
func Fig3c(s *Suite, m *mic.Machine) *Experiment {
	return irregularExperiment(s, m, "fig3c",
		"Irregular computation speedup, TBB simple (Figure 3c)",
		tbbCfg(sched.SimplePartitioner, grainTBB))
}

// bfsVariantSpec couples a queue variant with the runtime it runs on.
type bfsVariantSpec struct {
	label   string
	variant mic.BFSVariant
	cfg     mic.Config
}

// bfsExperiment computes speedup curves for the given variants on the given
// graph indices, plus the §III-C model curve.
func bfsExperiment(s *Suite, m *mic.Machine, id, title string,
	graphIdx []int, specs []bfsVariantSpec, threads []int) *Experiment {

	// BFS chunking works on queue blocks: the paper schedules "blocks of
	// vertices within a given level"; block size 32 performed best.
	const blockSize = 32

	exp := &Experiment{ID: id, Title: title}

	// Traces per (graph, variant) are independent of thread count and
	// runtime: specs that differ only in their config share one. All of them
	// come from the suite's one level structure per graph.
	var variants []mic.BFSVariant
	configs := make([]mic.Config, len(specs))
	labels := make([]string, len(specs))
	for i, spec := range specs {
		if !slices.Contains(variants, spec.variant) {
			variants = append(variants, spec.variant)
		}
		configs[i], labels[i] = spec.cfg, spec.label
		if spec.cfg.Chunk <= 1 {
			configs[i].Chunk = blockSize // schedule whole blocks
		}
	}
	ng := len(graphIdx)
	traces := make([]*mic.Trace, len(variants)*ng)
	s.Harness.each(len(traces), func(i int) {
		gi := graphIdx[i%ng]
		traces[i] = mic.BFSTraceFrom(m, s.Graphs[gi], s.Levels(gi), mic.NaturalOrder, variants[i/ng], blockSize)
	})
	exp.sweep(s.Harness, m, configs, labels, ng, threads, func(k, ci, _ int) *mic.Trace {
		return traces[slices.Index(variants, specs[ci].variant)*ng+k]
	})

	// Analytical model (§III-C), geometric mean across the same graphs.
	widths := make([][]int64, ng)
	for k, gi := range graphIdx {
		widths[k] = s.Levels(gi).Widths()
	}
	model := make([]float64, len(threads))
	per := make([]float64, ng)
	for ti, t := range threads {
		for k := range per {
			per[k] = perfmodel.Speedup(widths[k], t, blockSize)
		}
		model[ti] = GeoMean(per)
	}
	exp.Series = append(exp.Series, Series{Label: "Model", Threads: threads, Values: model})
	return exp
}

// Fig4a: BFS on pwtk — the outlier whose narrow level profile caps speedup
// early (slope change visible in the model curve).
func Fig4a(s *Suite, m *mic.Machine) *Experiment {
	gi := s.indexOf("pwtk")
	return bfsExperiment(s, m, "fig4a", "BFS speedup on pwtk (Figure 4a)",
		[]int{gi},
		[]bfsVariantSpec{
			{"OpenMP-Block-relaxed", mic.BFSBlockRelaxed, ompCfg(sched.Dynamic, 1)},
			{"OpenMP-Block", mic.BFSBlock, ompCfg(sched.Dynamic, 1)},
		},
		ThreadSweep())
}

// Fig4b: BFS on inline_1, whose wider levels allow about twice pwtk's
// speedup.
func Fig4b(s *Suite, m *mic.Machine) *Experiment {
	gi := s.indexOf("inline_1")
	return bfsExperiment(s, m, "fig4b", "BFS speedup on inline_1 (Figure 4b)",
		[]int{gi},
		[]bfsVariantSpec{
			{"OpenMP-Block-relaxed", mic.BFSBlockRelaxed, ompCfg(sched.Dynamic, 1)},
			{"OpenMP-Block", mic.BFSBlock, ompCfg(sched.Dynamic, 1)},
		},
		ThreadSweep())
}

// Fig4c: BFS on all graphs on the MIC — relaxed block queues (OpenMP and
// TBB) vs the Cilk bag, vs the model.
func Fig4c(s *Suite, m *mic.Machine) *Experiment {
	idx := make([]int, len(s.Graphs))
	for i := range idx {
		idx[i] = i
	}
	return bfsExperiment(s, m, "fig4c", "BFS speedup, all graphs on Intel MIC (Figure 4c)",
		idx,
		[]bfsVariantSpec{
			{"OpenMP-Block-relaxed", mic.BFSBlockRelaxed, ompCfg(sched.Dynamic, 1)},
			{"TBB-Block-relaxed", mic.BFSBlockRelaxed, tbbCfg(sched.SimplePartitioner, 1)},
			{"CilkPlus-Bag-relaxed", mic.BFSBag, cilkCfg(mic.BagGrain)},
		},
		ThreadSweep())
}

// Fig4d: BFS on all graphs on the host CPU, including SNAP's OpenMP-TLS.
func Fig4d(s *Suite, host *mic.Machine) *Experiment {
	idx := make([]int, len(s.Graphs))
	for i := range idx {
		idx[i] = i
	}
	return bfsExperiment(s, host, "fig4d", "BFS speedup, all graphs on the host CPU (Figure 4d)",
		idx,
		[]bfsVariantSpec{
			{"OpenMP-Block-relaxed", mic.BFSBlockRelaxed, ompCfg(sched.Dynamic, 1)},
			{"TBB-Block-relaxed", mic.BFSBlockRelaxed, tbbCfg(sched.SimplePartitioner, 1)},
			{"OpenMP-TLS", mic.BFSTLS, ompCfg(sched.Dynamic, 1)},
			{"CilkPlus-Bag-relaxed", mic.BFSBag, cilkCfg(mic.BagGrain)},
		},
		HostSweep())
}

// Experiment groups: the paper's tables and figures, the design-choice
// ablations, and the runs beyond the paper.
const (
	GroupPaper    = "paper"
	GroupAblation = "ablation"
	GroupExtra    = "extra"
)

// experiments is the one table of everything the engine can run, in report
// order. ByID, AllIDs, IDs and All read it, and through them so
// do micbench's -exp all|ablations and the daemon's sweep jobs.
var experiments = []struct {
	id, group string
	run       func(s *Suite, knf, host *mic.Machine) *Experiment
}{
	{"table1", GroupPaper, func(s *Suite, _, _ *mic.Machine) *Experiment { return Table1(s) }},
	{"fig1a", GroupPaper, onKNF(Fig1a)},
	{"fig1b", GroupPaper, onKNF(Fig1b)},
	{"fig1c", GroupPaper, onKNF(Fig1c)},
	{"fig2", GroupPaper, onKNF(Fig2)},
	{"fig3a", GroupPaper, onKNF(Fig3a)},
	{"fig3b", GroupPaper, onKNF(Fig3b)},
	{"fig3c", GroupPaper, onKNF(Fig3c)},
	{"fig4a", GroupPaper, onKNF(Fig4a)},
	{"fig4b", GroupPaper, onKNF(Fig4b)},
	{"fig4c", GroupPaper, onKNF(Fig4c)},
	{"fig4d", GroupPaper, func(s *Suite, _, host *mic.Machine) *Experiment { return Fig4d(s, host) }},
	{"abl-blocksize", GroupAblation, onKNF(AblBlockSize)},
	{"abl-chunk", GroupAblation, onKNF(AblChunkSize)},
	{"abl-smt", GroupAblation, onKNF(AblSMT)},
	{"abl-bonus", GroupAblation, onKNF(AblCacheBonus)},
	{"abl-ordering", GroupAblation, onKNF(AblOrdering)},
	{"abl-model", GroupAblation, onKNF(AblModelVsSim)},
	{"abl-direction", GroupAblation, onKNF(AblDirection)},
	{"extra-rmat", GroupExtra, onKNF(ExtraRMAT)},
	{"extra-knc", GroupExtra, func(s *Suite, _, _ *mic.Machine) *Experiment { return ExtraKNC(s, mic.KNC()) }},
}

// onKNF adapts an experiment that runs on the MIC machine alone.
func onKNF(run func(*Suite, *mic.Machine) *Experiment) func(*Suite, *mic.Machine, *mic.Machine) *Experiment {
	return func(s *Suite, knf, _ *mic.Machine) *Experiment { return run(s, knf) }
}

// IDs lists the experiment IDs of one group, in report order.
func IDs(group string) []string {
	var ids []string
	for _, e := range experiments {
		if e.group == group {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// AllIDs lists every experiment ID ByID accepts, in report order.
func AllIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// All returns every paper experiment, computed on the MIC machine (and the
// host machine for fig4d), in report order. The other groups run by id:
// RunMany(IDs(GroupAblation), …).
func All(s *Suite, knf, host *mic.Machine) []*Experiment {
	s, dismiss := s.staffed()
	defer dismiss()
	var out []*Experiment
	for _, e := range experiments {
		if e.group == GroupPaper {
			out = append(out, e.run(s, knf, host))
		}
	}
	return out
}

// ByID runs a single experiment by its id.
func ByID(id string, s *Suite, knf, host *mic.Machine) (*Experiment, error) {
	for _, e := range experiments {
		if e.id == id {
			s, dismiss := s.staffed()
			defer dismiss()
			return e.run(s, knf, host), nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}
