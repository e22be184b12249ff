package main

import "fmt"

// metricDef names one metric the benchmark emits. BENCHMARK.json carries the
// same names and units (plus the regression bound of each end-to-end
// metric); TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// The five kernels every pass of a graph workload times, in pass order: the
// default parallel variant of each family. The same five names are what the
// daemon's exec spans yield on serve-mix and what the probe graph yields on
// figures, so every workload emits every end-to-end metric, as the driver's
// contract requires. Their sequential twins are rungs of the per-layer
// ladder (bfs.seq.ns_per_arc, coloring.seq.ns_per_arc and the speedups):
// bfs.Sequential and coloring.SeqGreedy allocate their results on every
// call, and on this box their rates spread by a quarter from run to run
// (README.md, A/A check), which no bound the contract allows would hold.
const (
	kBFS = iota
	kHybrid
	kColor
	kIrregular
	kComponents
	numKernels
)

var kernelMetric = [numKernels]string{
	kBFS:        "bfs_mteps",
	kHybrid:     "hybrid_mteps",
	kColor:      "color_meps",
	kIrregular:  "irregular_meps",
	kComponents: "components_meps",
}

// endToEnd is measured with tracing off (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"bfs_mteps", "Marcs/s", "higher"},
	{"hybrid_mteps", "Marcs/s", "higher"},
	{"color_meps", "Marcs/s", "higher"},
	{"irregular_meps", "Marc-iters/s", "higher"},
	{"components_meps", "Marcs/s", "higher"},
}

// Kernel variants of the per-layer ladder. The first of each family is the
// sequential twin the speedups are taken against.
var (
	bfsVariants        = []string{"seq", "block", "block_relaxed", "block_tbb", "tls", "bag", "hybrid"}
	coloringVariants   = []string{"seq", "team", "cilk", "tbb"}
	componentsVariants = []string{"seq", "labelprop", "ptrjump"}
	irregularVariants  = []string{"seq", "team", "cilk", "tbb"}
	simRuntimes        = []string{"openmp", "cilk", "tbb"}
	figureIDs          = []string{"table1", "fig1a", "fig1b", "fig1c", "fig2", "fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig4c", "fig4d"}
	serveExecKinds     = []string{"bfs", "hybrid", "coloring", "components", "irregular"}
)

// perLayer is measured by the traced run (-trace 1). No metric here is
// gated; "better" only says which way an optimisation should push it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }

	// sched: dispatch cost of an empty loop, at one worker and at W.
	for _, rung := range []string{
		"sched.team.loop_us", "sched.team.loop_after_idle_us", "sched.team.static_loop_us",
		"sched.pool.cilkfor_us", "sched.pool.cilkfor_after_idle_us", "sched.tbb.range_us",
	} {
		add(rung+".w1", "us", "lower")
		add(rung+".wmax", "us", "lower")
	}
	add("sched.chunks_per_phase", "count", "lower")
	add("sched.steals_per_phase", "count", "lower")
	add("sched.steal_fail_ratio", "ratio", "lower")

	family := func(layer string, variants []string, per string) {
		for i, v := range variants {
			add(fmt.Sprintf("%s.%s.%s", layer, v, per), "ns", "lower")
			if i > 0 {
				add(fmt.Sprintf("%s.%s.speedup", layer, v), "ratio", "higher")
			}
		}
	}
	family("bfs", bfsVariants, "ns_per_arc")
	add("bfs.levels", "count", "lower")
	add("bfs.level_us_p50", "us", "lower")
	add("bfs.block_relaxed.dup_ratio", "ratio", "lower")
	add("bfs.hybrid.bu_levels", "count", "higher")
	add("bfs.hybrid.scan_ratio", "ratio", "lower")
	add("bfs.allocs_per_op", "count", "lower")

	family("coloring", coloringVariants, "ns_per_arc")
	add("coloring.rounds", "count", "lower")
	add("coloring.conflict_ratio", "ratio", "lower")
	add("coloring.colors", "count", "lower")

	family("components", componentsVariants, "ns_per_arc")
	add("components.rounds", "count", "lower")

	family("irregular", irregularVariants, "ns_per_arc_iter")
	add("irregular.pagerank.ns_per_arc_iter", "ns", "lower")

	add("gen.mesh_s", "s", "lower")
	add("gen.rmat_s", "s", "lower")
	add("graph.shuffle_s", "s", "lower")
	add("graph.csr_mb", "MB", "lower")

	add("mic.trace.coloring_ms", "ms", "lower")
	add("mic.trace.bfs_ms", "ms", "lower")
	add("mic.trace.irregular_ms", "ms", "lower")
	for _, rt := range simRuntimes {
		add("mic.sim."+rt+".ns_per_chunk", "ns", "lower")
	}
	add("mic.sim.allocs_per_chunk", "count", "lower")
	add("mic.sim.bytes_per_chunk", "B", "lower")
	add("mic.sim.chunks", "count", "lower")
	add("mic.sim.cycles", "cycles", "lower")

	add("core.suite_build_s", "s", "lower")
	for _, id := range figureIDs {
		add("core.fig."+id+"_ms", "ms", "lower")
	}
	add("core.allocs_per_pass", "count", "lower")
	add("core.bytes_per_pass", "B", "lower")
	add("core.write_json_ms", "ms", "lower")

	for _, s := range []string{"queue", "cache_hit", "cache_miss", "exec", "flush"} {
		add("serve."+s+"_ms", "ms", "lower")
	}
	for _, k := range serveExecKinds {
		add("serve.exec_ms."+k, "ms", "lower")
	}
	add("serve.client_overhead_ms", "ms", "lower")
	add("serve.cache.hit_ratio", "ratio", "higher")
	add("serve.cache.evictions", "count", "lower")
	add("serve.rejected", "count", "lower")
	add("job_p99_ms", "ms", "lower")

	add("cluster.hop_p50_ms", "ms", "lower")
	add("cluster.hop_overhead_ms", "ms", "lower")
	add("cluster.ring.owner_ns", "ns", "lower")

	add("trace_overhead_pct", "%", "lower")
	add("host.calib_cpu_ms", "ms", "lower")
	add("host.calib_mem_ms", "ms", "lower")
	add("host.calib_drift_pct", "%", "lower")
	return out
}

func unitOf(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}
