package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/irregular"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// The ladder is the per-layer half of the benchmark: one rung per layer,
// each timing the layer's public entry points in isolation. A traced run
// climbs the whole ladder whatever its workload, so every per-layer metric
// is always present; the kernel rungs run on the workload's own graph, the
// rungs of layers the workload does not exercise on small fixed inputs (see
// README.md for which reading is predictive on which workload).

// variantRun runs one kernel variant from source si and returns a check of
// its result against the oracle.
type variantRun func(ctx context.Context, rg *rig, in *graphInput, si int, or *oracle) (check func() error, err error)

// kernelVariant is one rung of a kernel family.
type kernelVariant struct {
	layer, name string
	unit        string // metric suffix: ns_per_arc or ns_per_arc_iter
	work        int    // index into graphInput.work: which numerator applies
	run         variantRun
}

func bfsRun(f func(ctx context.Context, rg *rig, in *graphInput, src int32) (bfs.Result, error)) variantRun {
	return func(ctx context.Context, rg *rig, in *graphInput, si int, _ *oracle) (func() error, error) {
		res, err := f(ctx, rg, in, in.sources[si])
		return func() error { return checkBFS(in, si, res) }, err
	}
}

func colorRun(f func(ctx context.Context, rg *rig) (coloring.Result, error)) variantRun {
	return func(ctx context.Context, rg *rig, _ *graphInput, _ int, _ *oracle) (func() error, error) {
		res, err := f(ctx, rg)
		return func() error { return coloring.Validate(rg.g, res.Colors) }, err
	}
}

func componentsRun(f func(ctx context.Context, rg *rig) (components.Result, error)) variantRun {
	return func(ctx context.Context, rg *rig, _ *graphInput, _ int, or *oracle) (func() error, error) {
		res, err := f(ctx, rg)
		return func() error { return checkComponents(rg.g, res, or.components) }, err
	}
}

func irregularRun(f func(ctx context.Context, rg *rig) ([]float64, error)) variantRun {
	return func(ctx context.Context, rg *rig, _ *graphInput, _ int, or *oracle) (func() error, error) {
		out, err := f(ctx, rg)
		return func() error { return checkIrregular(out, or.irregular) }, err
	}
}

// kernelVariants is every variant the ladder times, family by family, the
// sequential twin first. Names follow metrics.go.
var kernelVariants = []kernelVariant{
	{"bfs", "seq", "ns_per_arc", kBFS, bfsRun(func(_ context.Context, rg *rig, _ *graphInput, src int32) (bfs.Result, error) {
		return bfs.Sequential(rg.g, src), nil
	})},
	{"bfs", "block", "ns_per_arc", kBFS, bfsRun(func(ctx context.Context, rg *rig, _ *graphInput, src int32) (bfs.Result, error) {
		return rg.bfs.BlockTeam(ctx, rg.g, src, rg.team, bfsOpts, bfsBlock, false)
	})},
	{"bfs", "block_relaxed", "ns_per_arc", kBFS, bfsRun(func(ctx context.Context, rg *rig, _ *graphInput, src int32) (bfs.Result, error) {
		return rg.bfs.BlockTeam(ctx, rg.g, src, rg.team, bfsOpts, bfsBlock, true)
	})},
	{"bfs", "block_tbb", "ns_per_arc", kBFS, bfsRun(func(ctx context.Context, rg *rig, _ *graphInput, src int32) (bfs.Result, error) {
		return rg.bfs.BlockTBB(ctx, rg.g, src, rg.pool, sched.SimplePartitioner, bfsBlock, bfsBlock, true)
	})},
	{"bfs", "tls", "ns_per_arc", kBFS, bfsRun(func(ctx context.Context, rg *rig, _ *graphInput, src int32) (bfs.Result, error) {
		return rg.bfs.TLSTeam(ctx, rg.g, src, rg.team, bfsOpts)
	})},
	{"bfs", "bag", "ns_per_arc", kBFS, bfsRun(func(ctx context.Context, rg *rig, _ *graphInput, src int32) (bfs.Result, error) {
		return rg.bfs.BagCilk(ctx, rg.g, src, rg.pool, 0)
	})},
	{"bfs", "hybrid", "ns_per_arc", kBFS, bfsRun(func(ctx context.Context, rg *rig, _ *graphInput, src int32) (bfs.Result, error) {
		res, err := rg.bfs.Hybrid(ctx, rg.g, src, rg.team, bfsOpts, bfs.HybridConfig{})
		return res.Result, err
	})},

	{"coloring", "seq", "ns_per_arc", kColor, colorRun(func(_ context.Context, rg *rig) (coloring.Result, error) {
		return coloring.SeqGreedy(rg.g), nil
	})},
	{"coloring", "team", "ns_per_arc", kColor, colorRun(func(ctx context.Context, rg *rig) (coloring.Result, error) {
		return rg.col.ColorTeam(ctx, rg.g, rg.team, loopOpts)
	})},
	{"coloring", "cilk", "ns_per_arc", kColor, colorRun(func(ctx context.Context, rg *rig) (coloring.Result, error) {
		return rg.col.ColorCilk(ctx, rg.g, rg.pool, loopGrain, coloring.CilkHolder)
	})},
	{"coloring", "tbb", "ns_per_arc", kColor, colorRun(func(ctx context.Context, rg *rig) (coloring.Result, error) {
		return rg.col.ColorTBB(ctx, rg.g, rg.pool, sched.SimplePartitioner, loopGrain)
	})},

	{"components", "seq", "ns_per_arc", kComponents, componentsRun(func(_ context.Context, rg *rig) (components.Result, error) {
		return components.Sequential(rg.g), nil
	})},
	{"components", "labelprop", "ns_per_arc", kComponents, componentsRun(func(ctx context.Context, rg *rig) (components.Result, error) {
		return rg.cmp.LabelPropagation(ctx, rg.g, rg.team, loopOpts)
	})},
	{"components", "ptrjump", "ns_per_arc", kComponents, componentsRun(func(ctx context.Context, rg *rig) (components.Result, error) {
		return rg.cmp.PointerJumping(ctx, rg.g, rg.team, loopOpts)
	})},

	{"irregular", "seq", "ns_per_arc_iter", kIrregular, irregularRun(func(_ context.Context, rg *rig) ([]float64, error) {
		return irregular.Sequential(rg.g, rg.state, irregularIters), nil
	})},
	{"irregular", "team", "ns_per_arc_iter", kIrregular, irregularRun(func(ctx context.Context, rg *rig) ([]float64, error) {
		return irregular.TeamCtx(ctx, rg.g, rg.state, irregularIters, rg.team, loopOpts)
	})},
	{"irregular", "cilk", "ns_per_arc_iter", kIrregular, irregularRun(func(ctx context.Context, rg *rig) ([]float64, error) {
		return irregular.CilkCtx(ctx, rg.g, rg.state, irregularIters, rg.pool, loopGrain)
	})},
	{"irregular", "tbb", "ns_per_arc_iter", kIrregular, irregularRun(func(ctx context.Context, rg *rig) ([]float64, error) {
		return irregular.TBBCtx(ctx, rg.g, rg.state, irregularIters, rg.pool, sched.SimplePartitioner, loopGrain)
	})},
}

// kernelRungs times every kernel variant on in's graph from source 0: one
// validated warm-up pass, then timed passes until budget has elapsed (at
// least minPasses). Each pass runs every variant once, so the speedups
// compare runs that shared the same noise.
func (r *run) kernelRungs(ctx context.Context, parent int, in *graphInput, rg *rig, or *oracle, minPasses int, budget time.Duration) error {
	rung := r.tr.begin(parent, "bench", "kernel rungs")
	defer func() { r.tr.end(rung, nil) }()
	for _, kv := range kernelVariants {
		check, err := kv.run(ctx, rg, in, 0, or)
		if err != nil {
			return fmt.Errorf("%s.%s: %w", kv.layer, kv.name, err)
		}
		r.check(fmt.Sprintf("%s %s.%s", in.spec, kv.layer, kv.name), check())
	}
	times := make([][]float64, len(kernelVariants))
	start := time.Now()
	passes := 0
	for ; passes < minPasses || time.Since(start) < budget; passes++ {
		for i, kv := range kernelVariants {
			id := r.tr.begin(rung, kv.layer, kv.layer+"."+kv.name)
			t := time.Now()
			_, err := kv.run(ctx, rg, in, 0, or)
			times[i] = append(times[i], time.Since(t).Seconds())
			r.tr.end(id, nil)
			if err != nil {
				return fmt.Errorf("%s.%s: %w", kv.layer, kv.name, err)
			}
		}
	}
	r.rep.Samples["ladder_passes"] = passes
	work := in.work(0)
	seq := map[string]float64{}
	for i, kv := range kernelVariants {
		med := median(times[i])
		r.set(fmt.Sprintf("%s.%s.%s", kv.layer, kv.name, kv.unit), med/work[kv.work]*1e9)
		if kv.name == "seq" {
			seq[kv.layer] = med
		} else {
			r.set(fmt.Sprintf("%s.%s.speedup", kv.layer, kv.name), seq[kv.layer]/med)
		}
	}

	// PageRank: the algorithm the irregular kernel abstracts, ten power
	// iterations.
	const prIters = 10
	t := time.Now()
	_, iters := irregular.PageRank(rg.g, rg.team, loopOpts, irregular.PageRankOptions{MaxIter: prIters})
	r.set("irregular.pagerank.ns_per_arc_iter",
		float64(time.Since(t).Nanoseconds())/(float64(rg.g.NumArcs())*float64(max(iters, 1))))
	return nil
}

// instrumentedRungs runs the default variant of each family once with
// scheduler counters and a phase recorder attached, and derives the counts
// and ratios that say how the time of the kernel rungs was spent. Phase
// samples become child spans of the kernel call that produced them.
func (r *run) instrumentedRungs(ctx context.Context, parent int, in *graphInput, rg *rig) error {
	rung := r.tr.begin(parent, "bench", "instrumented rungs")
	defer func() { r.tr.end(rung, nil) }()
	src := in.sources[0]
	g := rg.g

	// observed runs f with fresh counters and a fresh recorder and returns
	// what they saw.
	observed := func(layer, name string, f func(ctx context.Context) error) (telemetry.CounterSet, []telemetry.PhaseSample, error) {
		counters := telemetry.NewCounters(r.w)
		rec := telemetry.NewMemRecorder()
		rg.setCounters(counters)
		defer rg.setCounters(nil)
		id := r.tr.begin(rung, layer, name)
		start := time.Now()
		err := f(telemetry.WithRecorder(ctx, rec))
		r.tr.end(id, nil)
		samples := rec.Samples()
		at := start
		for _, s := range samples {
			r.tr.add(id, layer, fmt.Sprintf("%s %d", s.Phase, s.Index), 0, at, s.Duration,
				map[string]any{"items": s.Items, "edges": s.Edges, "claims": s.Claims})
			at = at.Add(s.Duration)
		}
		return counters.Snapshot().Totals, samples, err
	}

	var team, pool telemetry.CounterSet
	var teamPhases, poolPhases int
	addTeam := func(c telemetry.CounterSet, n int) { team.ChunksClaimed += c.ChunksClaimed; teamPhases += n }
	addPool := func(c telemetry.CounterSet, n int) {
		pool.Steals += c.Steals
		pool.StealFails += c.StealFails
		poolPhases += n
	}

	var bres bfs.Result
	c, samples, err := observed("bfs", "bfs.block_relaxed", func(ctx context.Context) (err error) {
		bres, err = rg.bfs.BlockTeam(ctx, g, src, rg.team, bfsOpts, bfsBlock, true)
		return err
	})
	if err != nil {
		return err
	}
	addTeam(c, len(samples))
	var levelUS []float64
	for _, s := range samples {
		levelUS = append(levelUS, us(s.Duration))
	}
	r.set("bfs.levels", float64(bres.NumLevels))
	r.set("bfs.level_us_p50", median(levelUS))
	r.set("bfs.block_relaxed.dup_ratio", float64(bres.Duplicates)/float64(max(bres.Processed, 1)))

	var hres bfs.HybridResult
	c, samples, err = observed("bfs", "bfs.hybrid", func(ctx context.Context) (err error) {
		hres, err = rg.bfs.Hybrid(ctx, g, src, rg.team, bfsOpts, bfs.HybridConfig{})
		return err
	})
	if err != nil {
		return err
	}
	addTeam(c, len(samples))
	var scanned int64
	for _, s := range samples {
		scanned += s.Edges
	}
	r.set("bfs.hybrid.bu_levels", float64(hres.BottomUpLevels))
	r.set("bfs.hybrid.scan_ratio", float64(scanned)/float64(in.reach[0]))

	var cres coloring.Result
	c, samples, err = observed("coloring", "coloring.team", func(ctx context.Context) (err error) {
		cres, err = rg.col.ColorTeam(ctx, g, rg.team, loopOpts)
		return err
	})
	if err != nil {
		return err
	}
	addTeam(c, len(samples))
	var conflicts int64
	for _, s := range samples {
		conflicts += s.Claims
	}
	r.set("coloring.rounds", float64(cres.Rounds))
	r.set("coloring.conflict_ratio", float64(conflicts)/float64(g.NumVertices()))
	r.set("coloring.colors", float64(cres.NumColors))

	mres, err := rg.cmp.LabelPropagation(ctx, g, rg.team, loopOpts)
	if err != nil {
		return err
	}
	r.set("components.rounds", float64(mres.Rounds))

	// The work-stealing side: bag BFS and the Cilk and TBB colorings.
	for _, pr := range []struct {
		name string
		f    func(ctx context.Context) error
	}{
		{"bfs.bag", func(ctx context.Context) error { _, err := rg.bfs.BagCilk(ctx, g, src, rg.pool, 0); return err }},
		{"coloring.cilk", func(ctx context.Context) error {
			_, err := rg.col.ColorCilk(ctx, g, rg.pool, loopGrain, coloring.CilkHolder)
			return err
		}},
		{"coloring.tbb", func(ctx context.Context) error {
			_, err := rg.col.ColorTBB(ctx, g, rg.pool, sched.SimplePartitioner, loopGrain)
			return err
		}},
	} {
		c, samples, err := observed("sched", pr.name, pr.f)
		if err != nil {
			return err
		}
		addPool(c, len(samples))
	}
	r.set("sched.chunks_per_phase", float64(team.ChunksClaimed)/float64(max(teamPhases, 1)))
	r.set("sched.steals_per_phase", float64(pool.Steals)/float64(max(poolPhases, 1)))
	r.set("sched.steal_fail_ratio", float64(pool.StealFails)/float64(max(pool.Steals+pool.StealFails, 1)))

	// Allocations of one steady-state BFS on the resident scratch.
	const allocRuns = 3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocRuns; i++ {
		if _, err := rg.bfs.BlockTeam(ctx, g, src, rg.team, bfsOpts, bfsBlock, true); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	r.set("bfs.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/allocRuns)
	return nil
}

// schedRungs times empty-body loops on each scheduler substrate, at one
// worker and at W: what a loop costs before it does any work. Back to back
// the workers are still spinning when the next loop arrives; after the
// caller has been busy for 200 µs they have parked, and the loop pays the
// wake-up — the figure a level-synchronous kernel on a small graph lives on.
func (r *run) schedRungs(parent int) error {
	rung := r.tr.begin(parent, "sched", "sched rungs")
	defer func() { r.tr.end(rung, nil) }()
	const n, grain = 4096, 32
	loops, idleLoops := 2000, 200
	if r.cfg.smoke {
		loops, idleLoops = 100, 20
	}
	teamBody := func(lo, hi, w int) {}
	poolBody := func(lo, hi int, c *sched.Ctx) {}

	// backToBack reports the median cost of a loop over batches of ten.
	backToBack := func(loop func() error) (float64, error) {
		var samples []float64
		for i := 0; i < loops/10; i++ {
			t := time.Now()
			for j := 0; j < 10; j++ {
				if err := loop(); err != nil {
					return 0, err
				}
			}
			samples = append(samples, us(time.Since(t))/10)
		}
		return median(samples), nil
	}
	afterIdle := func(loop func() error) (float64, error) {
		var samples []float64
		for i := 0; i < idleLoops; i++ {
			for spin := time.Now(); time.Since(spin) < 200*time.Microsecond; {
			}
			t := time.Now()
			if err := loop(); err != nil {
				return 0, err
			}
			samples = append(samples, us(time.Since(t)))
		}
		return median(samples), nil
	}

	for _, wk := range []struct {
		suffix  string
		workers int
	}{{".w1", 1}, {".wmax", r.w}} {
		team := sched.NewTeam(wk.workers)
		pool := sched.NewPool(wk.workers)
		dynamic := func() error {
			return team.ForE(n, sched.ForOptions{Policy: sched.Dynamic, Chunk: grain, SerialBelow: -1}, teamBody)
		}
		static := func() error {
			return team.ForE(n, sched.ForOptions{Policy: sched.Static, SerialBelow: -1}, teamBody)
		}
		cilk := func() error { return pool.ParallelForE(n, grain, poolBody) }
		tbb := func() error {
			return sched.ParallelForRangeCtx(context.Background(), pool, sched.Range{Lo: 0, Hi: n, Grain: grain}, sched.SimplePartitioner, nil, poolBody)
		}
		var err error
		for _, m := range []struct {
			name string
			f    func(func() error) (float64, error)
			loop func() error
		}{
			{"sched.team.loop_us", backToBack, dynamic},
			{"sched.team.loop_after_idle_us", afterIdle, dynamic},
			{"sched.team.static_loop_us", backToBack, static},
			{"sched.pool.cilkfor_us", backToBack, cilk},
			{"sched.pool.cilkfor_after_idle_us", afterIdle, cilk},
			{"sched.tbb.range_us", backToBack, tbb},
		} {
			var v float64
			if v, err = m.f(m.loop); err != nil {
				break
			}
			r.set(m.name+wk.suffix, v)
		}
		team.Close()
		pool.Close()
		if err != nil {
			return fmt.Errorf("sched rung: %w", err)
		}
	}
	return nil
}
