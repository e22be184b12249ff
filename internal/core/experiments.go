package core

import (
	"fmt"
	"slices"

	"micgraph/internal/mic"
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

// bfsBlock is the BFS queue block size. BFS chunking works on queue blocks
// (the paper schedules "blocks of vertices within a given level"), so a BFS
// line's OpenMP and TBB runtimes schedule whole blocks; 32 performed best.
const bfsBlock = 32

func ompCfg(p sched.Policy, chunk int) mic.Config {
	return mic.Config{Kind: mic.OpenMP, Policy: p, Chunk: chunk}
}

func tbbCfg(p sched.Partitioner, grain int) mic.Config {
	return mic.Config{Kind: mic.TBB, Partitioner: p, Chunk: grain}
}

func cilkCfg(grain int) mic.Config {
	return mic.Config{Kind: mic.Cilk, Chunk: grain}
}

// ompDynamic is the configuration the ablations hold fixed.
var ompDynamic = ompCfg(sched.Dynamic, chunkDynamic)

// Experiment groups: the paper's tables and figures, the design-choice
// ablations, and the runs beyond the paper.
const (
	GroupPaper    = "paper"
	GroupAblation = "ablation"
	GroupExtra    = "extra"
)

// experiment is one row of the table: an id, its group, what the report says
// of it, and what it runs.
type experiment struct {
	id, group, title, notes string

	sweeps   []sweep
	perKNF   func(knf *mic.Machine) []sweep           // in place of sweeps, when the caller's KNF decides them
	model    bool                                     // append the §III-C model curve over the first sweep's graphs
	assemble func(e *Experiment, c *call, runs []run) // the runs into series; nil: each run's curve
}

// relaxedVsLocked is Figure 4(a)/(b): the block queue without and with claims.
var relaxedVsLocked = []line{
	{"OpenMP-Block-relaxed", ompCfg(sched.Dynamic, bfsBlock), mic.BFSBlockRelaxed},
	{"OpenMP-Block", ompCfg(sched.Dynamic, bfsBlock), mic.BFSBlock},
}

// experiments is the one table of everything the engine can run, in report
// order. ByID, AllIDs, IDs and All read it, and through them so do micbench's
// -exp all|ablations and the daemon's sweep jobs. The paper's figures are
// data; an ablation or extra adds at most the assembly of its runs.
var experiments = []experiment{
	{id: "table1", group: GroupPaper, title: "Properties of the test graphs (Table I)",
		notes:    "Colors: sequential First-Fit greedy, natural order. Levels: BFS from vertex |V|/2.",
		assemble: table1},
	{id: "fig1a", group: GroupPaper, title: "Coloring speedup, OpenMP scheduling policies (Figure 1a)",
		sweeps: []sweep{{kernel: kernelColoring, lines: []line{
			{label: "OpenMP-dynamic", cfg: ompCfg(sched.Dynamic, chunkDynamic)},
			{label: "OpenMP-static", cfg: ompCfg(sched.Static, chunkStatic)},
			{label: "OpenMP-guided", cfg: ompCfg(sched.Guided, chunkGuided)},
		}}}},
	// Cilk Plus worker-id vs holder localFC differ only in TLS mechanics, which
	// the paper found nearly indistinguishable; the simulator charges the
	// holder a slightly higher per-chunk cost (lazy view lookup).
	{id: "fig1b", group: GroupPaper, title: "Coloring speedup, Cilk Plus variants (Figure 1b)",
		sweeps: []sweep{{kernel: kernelColoring, lines: []line{
			{label: "CilkPlus", cfg: cilkCfg(grainCilk)},
			{label: "CilkPlus-holder", cfg: cilkCfg(grainCilk + 1)},
		}}}},
	{id: "fig1c", group: GroupPaper, title: "Coloring speedup, TBB partitioners (Figure 1c)",
		sweeps: []sweep{{kernel: kernelColoring, lines: []line{
			{label: "TBB-simple", cfg: tbbCfg(sched.SimplePartitioner, grainTBB)},
			{label: "TBB-auto", cfg: tbbCfg(sched.AutoPartitioner, grainTBB)},
			{label: "TBB-affinity", cfg: tbbCfg(sched.AffinityPartitioner, grainTBB)},
		}}}},
	// The best variant per programming model, on randomly shuffled graphs.
	{id: "fig2", group: GroupPaper, title: "Coloring speedup on randomly ordered graphs (Figure 2)",
		sweeps: []sweep{{kernel: kernelColoring, src: shuffled, lines: []line{
			{label: "OpenMP", cfg: ompCfg(sched.Dynamic, chunkDynamic)},
			{label: "TBB", cfg: tbbCfg(sched.SimplePartitioner, grainTBB)},
			{label: "CilkPlus", cfg: cilkCfg(grainCilk)},
		}}}},
	{id: "fig3a", group: GroupPaper, title: "Irregular computation speedup, OpenMP dynamic (Figure 3a)",
		sweeps: iterationSweeps(ompCfg(sched.Dynamic, chunkDynamic))},
	{id: "fig3b", group: GroupPaper, title: "Irregular computation speedup, Cilk Plus (Figure 3b)",
		sweeps: iterationSweeps(cilkCfg(grainCilk))},
	{id: "fig3c", group: GroupPaper, title: "Irregular computation speedup, TBB simple (Figure 3c)",
		sweeps: iterationSweeps(tbbCfg(sched.SimplePartitioner, grainTBB))},
	// pwtk is the outlier whose narrow level profile caps speedup early (the
	// slope change shows in the model curve); inline_1's wider levels allow
	// about twice its speedup.
	{id: "fig4a", group: GroupPaper, title: "BFS speedup on pwtk (Figure 4a)", model: true,
		sweeps: []sweep{{kernel: kernelBFS, param: bfsBlock, only: "pwtk", lines: relaxedVsLocked}}},
	{id: "fig4b", group: GroupPaper, title: "BFS speedup on inline_1 (Figure 4b)", model: true,
		sweeps: []sweep{{kernel: kernelBFS, param: bfsBlock, only: "inline_1", lines: relaxedVsLocked}}},
	{id: "fig4c", group: GroupPaper, title: "BFS speedup, all graphs on Intel MIC (Figure 4c)", model: true,
		sweeps: []sweep{{kernel: kernelBFS, param: bfsBlock, lines: []line{
			{"OpenMP-Block-relaxed", ompCfg(sched.Dynamic, bfsBlock), mic.BFSBlockRelaxed},
			{"TBB-Block-relaxed", tbbCfg(sched.SimplePartitioner, bfsBlock), mic.BFSBlockRelaxed},
			{"CilkPlus-Bag-relaxed", cilkCfg(mic.BagGrain), mic.BFSBag},
		}}}},
	// On the host, with SNAP's OpenMP-TLS beside them.
	{id: "fig4d", group: GroupPaper, title: "BFS speedup, all graphs on the host CPU (Figure 4d)", model: true,
		sweeps: []sweep{{on: func(_, host *mic.Machine) *mic.Machine { return host }, kernel: kernelBFS, param: bfsBlock, threads: HostSweep(), lines: []line{
			{"OpenMP-Block-relaxed", ompCfg(sched.Dynamic, bfsBlock), mic.BFSBlockRelaxed},
			{"TBB-Block-relaxed", tbbCfg(sched.SimplePartitioner, bfsBlock), mic.BFSBlockRelaxed},
			{"OpenMP-TLS", ompCfg(sched.Dynamic, bfsBlock), mic.BFSTLS},
			{"CilkPlus-Bag-relaxed", cilkCfg(mic.BagGrain), mic.BFSBag},
		}}}},

	// Each ablation isolates one design choice the paper (or this
	// reproduction) calls out, holding everything else fixed.
	//
	// The trade-off of §IV-C: "by keeping the block size small (but not so
	// small so that we do not use atomics too often), the overhead is
	// minimized".
	{id: "abl-blocksize", group: GroupAblation, title: "Ablation: BFS block size (relaxed queue, OpenMP dynamic)",
		notes:  "Values are geometric-mean speedups across the suite; the paper's best block size is 32.",
		sweeps: blockSizeSweeps(), assemble: acrossX(blockSizes)},
	// §V-B: "Different chunk sizes (from 40 to 150) were tried and only the
	// best results are reported ... the dynamic scheduling policy performs
	// better with a chunk size of 100."
	{id: "abl-chunk", group: GroupAblation, title: "Ablation: OpenMP dynamic chunk size for coloring",
		notes:    "The x column is the chunk size; the paper's best is 100.",
		sweeps:   []sweep{{kernel: kernelColoring, lines: chunkLines(), threads: []int{31, 121}, self: true}},
		assemble: acrossX(chunkSizes)},
	// The paper's headline mechanism: without SMT the memory-bound kernel
	// cannot scale past the core count.
	{id: "abl-smt", group: GroupAblation, title: "Ablation: SMT ways (shuffled coloring, OpenMP dynamic)",
		notes:  "Threads beyond cores × ways are clamped to the hardware limit.",
		perKNF: smtSweeps},
	// The mechanism behind the superlinear Figure 2 speedups.
	{id: "abl-bonus", group: GroupAblation, title: "Ablation: shared-cache interference bonus (shuffled coloring)",
		notes: "With the bonus off, speedup cannot exceed the thread count.",
		sweeps: []sweep{
			{kernel: kernelColoring, src: shuffled, lines: []line{{label: "bonus on", cfg: ompDynamic}}, self: true, clamp: true},
			{on: tuned(func(m *mic.Machine) { m.CacheShareBonus = 0 }), kernel: kernelColoring, src: shuffled,
				lines: []line{{label: "bonus off", cfg: ompDynamic}}, self: true, clamp: true},
		}},
	// Orderings between the paper's two extremes, scored by the miss rate
	// measured on each (mic.EffectiveMissPerEdge): RCM's restored locality
	// shows as a one-thread time close to natural and a speedup between the
	// two curves.
	{id: "abl-ordering", group: GroupAblation, title: "Ablation: vertex ordering (coloring; natural vs shuffled vs RCM-restored)",
		notes: "Values at 1 thread are relative times vs natural (higher = slower); at >1 threads, speedups vs the ordering's own 1-thread time.",
		sweeps: []sweep{
			{kernel: kernelColoring, src: measuredNatural, lines: []line{{label: "natural", cfg: ompDynamic}}, threads: []int{31, 61, 121}, self: true},
			{kernel: kernelColoring, src: measuredShuffled, lines: []line{{label: "shuffled", cfg: ompDynamic}}, threads: []int{31, 61, 121}, self: true},
			{kernel: kernelColoring, src: measuredRCM, lines: []line{{label: "shuffled+RCM", cfg: ompDynamic}}, threads: []int{31, 61, 121}, self: true},
		},
		assemble: relativeToNatural},
	// The analytical model is exactly the simulator with uniform vertex costs,
	// zero overheads and no SMT: the "five unrealistic assumptions" of §III-C.
	{id: "abl-model", group: GroupAblation, title: "Ablation: analytical model vs simulator (BFS, pwtk)",
		sweeps: []sweep{
			{on: tuned(func(m *mic.Machine) { // no barriers, atomics, grab cost, core 0 noise or cache bonus
				m.BarrierBase, m.BarrierPerThread, m.DynamicGrabCost = 0, 0, 0
				m.AtomicCost, m.AtomicContPerT, m.AtomicContSq, m.NoiseCore0, m.CacheShareBonus = 0, 0, 0, 0, 0
			}), kernel: kernelBFS, param: bfsBlock, only: "pwtk",
				lines: []line{{"simulator, overheads off", ompCfg(sched.Dynamic, bfsBlock), mic.BFSBlockRelaxed}}, self: true},
			{kernel: kernelBFS, param: bfsBlock, only: "pwtk",
				lines: []line{{"simulator, full", ompCfg(sched.Dynamic, bfsBlock), mic.BFSBlockRelaxed}}, self: true},
		},
		assemble: func(e *Experiment, c *call, runs []run) {
			e.Series = append(e.Series, c.model("analytical model", runs[1].sweep, false))
			e.curves(runs)
		}},
	// The direction-optimizing BFS (Beamer-style α/β switching, as in
	// internal/bfs) against the pure top-down traversal it switches away from.
	// A win ratio above 1.0 means the bottom-up middle levels pay for
	// themselves at that thread count.
	{id: "abl-direction", group: GroupAblation, title: "Ablation: direction-optimizing BFS vs pure top-down",
		notes: "Geometric means across the suite; sources at |V|/2. The win ratio is simulated top-down time over hybrid time at equal thread count.",
		sweeps: []sweep{{kernel: kernelBFS, param: bfsBlock, self: true, lines: []line{
			{"top-down (Block-relaxed)", ompCfg(sched.Dynamic, bfsBlock), mic.BFSBlockRelaxed},
			{"hybrid (direction-optimizing)", ompCfg(sched.Dynamic, bfsBlock), mic.BFSHybrid},
		}}},
		assemble: func(e *Experiment, _ *call, runs []run) {
			e.curves(runs)
			e.Series = append(e.Series, Series{Label: "win ratio (td/hybrid time)", Threads: runs[0].threads,
				Values: ratios(runs[0].times[1:], runs[1].times[1:])})
		}},

	// The kernels on the other major irregular-graph class: skewed degrees
	// (hubs stress the load balancer) and a shallow, wide level structure,
	// whose model curve should permit far more BFS parallelism than pwtk's
	// ribbon.
	{id: "extra-rmat", group: GroupExtra, title: "Beyond the paper: kernels on an RMAT power-law graph",
		notes: "RMAT a=0.57 b=c=0.19 (Graph 500); shallow wide BFS levels vs the FEM meshes' long thin profiles.",
		sweeps: []sweep{
			{kernel: kernelColoring, src: rmat, lines: []line{{label: "coloring OpenMP-dynamic", cfg: ompDynamic}}, self: true},
			{kernel: kernelBFS, src: rmat, param: bfsBlock, self: true,
				lines: []line{{"BFS Block-relaxed", ompCfg(sched.Dynamic, bfsBlock), mic.BFSBlockRelaxed}}},
		},
		assemble: func(e *Experiment, c *call, runs []run) {
			e.curves(runs)
			e.Series = append(e.Series, c.model("BFS model", runs[1].sweep, false))
		}},
	// Figure 2's kernel, the one that scales best, projected onto the Knights
	// Corner part the paper closes on ("we are looking forward to perform more
	// evaluation on the final design"), against a stock KNF on the same axis.
	{id: "extra-knc", group: GroupExtra, title: "Beyond the paper: shuffled coloring projected onto Knights Corner (60 cores x 4 SMT)",
		notes: "Same cost model as KNF with a longer ring and scaled bandwidth; the paper anticipated >50 cores.",
		sweeps: []sweep{
			{on: func(_, _ *mic.Machine) *mic.Machine { return mic.KNC() }, kernel: kernelColoring, src: shuffled, threads: kncThreads, self: true, clamp: true,
				lines: []line{{label: "OpenMP-dynamic on KNC", cfg: ompDynamic}}},
			{on: func(_, _ *mic.Machine) *mic.Machine { return mic.KNF() }, kernel: kernelColoring, src: shuffled, threads: kncThreads, self: true, clamp: true,
				lines: []line{{label: "OpenMP-dynamic on KNF", cfg: ompDynamic}}},
		}},
}

// table1 regenerates Table I: the structural properties of the test graphs,
// including the sequential greedy color count and the BFS level count from
// vertex |V|/2.
func table1(e *Experiment, c *call, _ []run) {
	s := c.s
	e.Rows = make([]TableRow, len(s.Graphs))
	done := s.Harness.each(len(s.Graphs), func(i int) {
		g, cfg := s.Graphs[i], s.Configs[i]
		e.Rows[i] = TableRow{
			Name:     cfg.Name,
			V:        g.NumVertices(),
			E:        g.NumEdges(),
			MaxDeg:   g.MaxDegree(),
			Colors:   s.greedyColors(i),
			Levels:   len(s.Levels(i).Order),
			PaperCol: cfg.PaperColors,
			PaperLev: cfg.PaperLevels,
		}
	})
	if e.Rows = e.Rows[:done]; done < len(s.Graphs) {
		e.cutOff(s.Harness, nil)
	}
}

// iterationSweeps is one Figure 3 panel: cfg on the irregular kernel at 1, 3,
// 5 and 10 iterations, speedups computed "relatively to the same number of
// iterations".
func iterationSweeps(cfg mic.Config) []sweep {
	var out []sweep
	for _, iter := range []int{1, 3, 5, 10} {
		out = append(out, sweep{kernel: kernelIrregular, param: iter,
			lines: []line{{label: fmt.Sprintf("%d iteration(s)", iter), cfg: cfg}}})
	}
	return out
}

var (
	blockSizes = []int{4, 8, 16, 32, 64, 128, 256}
	chunkSizes = []int{10, 25, 40, 100, 150, 400, 1000}
	kncThreads = []int{1, 20, 40, 60, 80, 100, 120, 140, 160, 180, 200, 220, 240} // to KNC's hardware threads
)

// blockSizeSweeps is the relaxed block queue at every block size: one trace
// set each, played at every thread count.
func blockSizeSweeps() []sweep {
	var out []sweep
	for _, bs := range blockSizes {
		out = append(out, sweep{kernel: kernelBFS, param: bs, threads: []int{31, 61, 121}, self: true,
			lines: []line{{fmt.Sprintf("block %d", bs), ompCfg(sched.Dynamic, bs), mic.BFSBlockRelaxed}}})
	}
	return out
}

func chunkLines() []line {
	var out []line
	for _, chunk := range chunkSizes {
		out = append(out, line{label: fmt.Sprintf("chunk %d", chunk), cfg: ompCfg(sched.Dynamic, chunk)})
	}
	return out
}

// smtSweeps is the shuffled coloring on the caller's KNF with its SMT width
// forced to each of 1..SMTWays hardware threads per core.
func smtSweeps(knf *mic.Machine) []sweep {
	out := make([]sweep, knf.SMTWays)
	for i := range out {
		ways := i + 1
		out[i] = sweep{on: tuned(func(m *mic.Machine) { m.SMTWays = ways }), kernel: kernelColoring, src: shuffled,
			lines: []line{{label: fmt.Sprintf("%d-way SMT", ways), cfg: ompDynamic}}, self: true, clamp: true}
	}
	return out
}

// acrossX assembles runs, one curve per x value, into one series per thread
// count over the x axis.
func acrossX(xs []int) func(*Experiment, *call, []run) {
	return func(e *Experiment, _ *call, runs []run) {
		xs := slices.Clone(xs)
		for ti, th := range runs[0].threads {
			vals := make([]float64, len(xs))
			for xi, r := range runs {
				vals[xi] = r.curve().Values[ti]
			}
			e.Series = append(e.Series, Series{Label: fmt.Sprintf("%d threads", th), Threads: xs, Values: vals})
		}
	}
}

// relativeToNatural assembles abl-ordering: at one thread each ordering's
// serial time relative to the natural ordering's (the first run), then its
// speedup over its own serial time.
func relativeToNatural(e *Experiment, _ *call, runs []run) {
	for _, r := range runs {
		e.Series = append(e.Series, Series{Label: r.lines[r.line].label, Threads: append([]int{1}, r.threads...),
			Values: append(ratios(r.times[:1], runs[0].times[:1]), r.curve().Values...)})
	}
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

func find(id string) *experiment {
	for i := range experiments {
		if experiments[i].id == id {
			return &experiments[i]
		}
	}
	return nil
}

// All returns every paper experiment, computed on the MIC machine (and the
// host machine for fig4d), in report order. The other groups run by id:
// RunMany(IDs(GroupAblation), …).
func All(s *Suite, knf, host *mic.Machine) []*Experiment {
	return runRows(IDs(GroupPaper), s, knf, host)
}

// ByID runs a single experiment by its id. The error return is reserved for
// unknown IDs: a failure inside the experiment is an annotation on it.
func ByID(id string, s *Suite, knf, host *mic.Machine) (*Experiment, error) {
	if find(id) == nil {
		return nil, fmt.Errorf("core: unknown experiment %q", id)
	}
	return runRows([]string{id}, s, knf, host)[0], nil
}
