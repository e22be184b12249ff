package core

import (
	"fmt"
	"slices"

	"micgraph/internal/coloring"
	"micgraph/internal/graph"
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
	for i, g := range s.Graphs {
		cfg := s.Configs[i]
		res := coloring.SeqGreedy(g)
		_, nl := g.Levels(int32(g.NumVertices() / 2))
		exp.Rows = append(exp.Rows, TableRow{
			Name:     cfg.Name,
			V:        g.NumVertices(),
			E:        g.NumEdges(),
			MaxDeg:   g.MaxDegree(),
			Colors:   res.NumColors,
			Levels:   nl,
			PaperCol: cfg.PaperColors,
			PaperLev: cfg.PaperLevels,
		})
	}
	return exp
}

// coloringExperiment runs one coloring figure: the given configs on the
// given graphs (natural or shuffled), geometric mean across the suite.
func coloringExperiment(s *Suite, m *mic.Machine, id, title string,
	o mic.Ordering, configs []mic.Config, labels []string) *Experiment {

	graphs := s.Graphs
	if o == mic.ShuffledOrder {
		graphs = s.Shuffled()
	}
	threads := ThreadSweep()

	// Coloring traces depend on t (conflict rounds) but not on the config.
	traceAt := coloringTraces(m, graphs, o, threads)
	series, errs, cells := speedupCurves(s.Harness, m, configs, labels, len(graphs), threads,
		func(gi, _, t int) *mic.Trace { return traceAt(gi, t) })
	return &Experiment{
		ID:     id,
		Title:  title,
		Series: series,
		Errors: stamp(id, errs),
		Cells:  stampCells(id, cells),
	}
}

// coloringTraces returns the lookup of graphs[gi]'s coloring trace at thread
// count t, for t in threads. A graph's traces are built together on its first
// lookup and share round one (mic.ColoringTraceSweep), so a sweep holds one
// copy of the graph-sized phases per graph, not one per thread count.
func coloringTraces(m *mic.Machine, graphs []*graph.Graph, o mic.Ordering, threads []int) func(gi, t int) *mic.Trace {
	sweeps := make([][]*mic.Trace, len(graphs))
	return func(gi, t int) *mic.Trace {
		if sweeps[gi] == nil {
			sweeps[gi] = mic.ColoringTraceSweep(m, graphs[gi], m.MissPerEdge(o), threads)
		}
		return sweeps[gi][slices.Index(threads, t)]
	}
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
		iter := iter
		traces := make([]*mic.Trace, len(s.Graphs))
		for gi, g := range s.Graphs {
			traces[gi] = mic.IrregularTrace(m, g, mic.NaturalOrder, iter)
		}
		series, errs, cells := speedupCurves(s.Harness, m, []mic.Config{cfg},
			[]string{fmt.Sprintf("%d iteration(s)", iter)},
			len(s.Graphs), threads,
			func(gi, _, _ int) *mic.Trace { return traces[gi] })
		exp.Series = append(exp.Series, series...)
		exp.Errors = append(exp.Errors, stamp(id, errs)...)
		exp.Cells = append(exp.Cells, stampCells(id, cells)...)
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
	// runtime: specs that differ only in their config share one.
	traces := make(map[[2]int]*mic.Trace)
	sources := make(map[int]int32)
	for _, gi := range graphIdx {
		sources[gi] = int32(s.Graphs[gi].NumVertices() / 2)
	}
	for _, spec := range specs {
		for _, gi := range graphIdx {
			key := [2]int{gi, int(spec.variant)}
			if traces[key] == nil {
				traces[key] = mic.BFSTrace(m, s.Graphs[gi], sources[gi],
					mic.NaturalOrder, spec.variant, blockSize)
			}
		}
	}

	configs := make([]mic.Config, len(specs))
	labels := make([]string, len(specs))
	for i, spec := range specs {
		cfg := spec.cfg
		if cfg.Chunk <= 1 {
			cfg.Chunk = blockSize // schedule whole blocks
		}
		configs[i] = cfg
		labels[i] = spec.label
	}
	series, errs, cells := speedupCurves(s.Harness, m, configs, labels, len(graphIdx), threads,
		func(gi, ci, _ int) *mic.Trace { return traces[[2]int{graphIdx[gi], int(specs[ci].variant)}] })
	exp.Series = series
	exp.Errors = append(exp.Errors, stamp(id, errs)...)
	exp.Cells = append(exp.Cells, stampCells(id, cells)...)

	// Analytical model (§III-C), geometric mean across the same graphs.
	widths := make([][]int64, len(graphIdx))
	for i, gi := range graphIdx {
		widths[i] = s.Graphs[gi].LevelWidths(sources[gi])
	}
	model := make([]float64, len(threads))
	for ti, t := range threads {
		per := make([]float64, len(graphIdx))
		for i := range graphIdx {
			per[i] = perfmodel.Speedup(widths[i], t, blockSize)
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

func (s *Suite) indexOf(name string) int {
	for i := range s.Configs {
		base := s.Configs[i].Name
		for j := 0; j < len(base); j++ {
			if base[j] == '/' {
				base = base[:j]
				break
			}
		}
		if base == name {
			return i
		}
	}
	panic(fmt.Sprintf("core: graph %q not in suite", name))
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
			return e.run(s, knf, host), nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}
