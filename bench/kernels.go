package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime/debug"
	"time"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/graph"
	"micgraph/internal/irregular"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// Scheduling parameters of the end-to-end kernels: the facade's and the
// daemon's defaults.
var (
	bfsOpts  = sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
	loopOpts = sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
)

const (
	bfsBlock       = 32
	irregularIters = 5
	loopGrain      = 100
)

// rig is the resident state the kernels run on: one team, one pool and one
// scratch per family, built once and reused by every pass, like a daemon
// worker's runtime.
type rig struct {
	g     *graph.Graph
	team  *sched.Team
	pool  *sched.Pool
	bfs   *bfs.Scratch
	col   *coloring.Scratch
	cmp   *components.Scratch
	state []float64
}

func newRig(g *graph.Graph, w int) *rig {
	return &rig{
		g: g, team: sched.NewTeam(w), pool: sched.NewPool(w),
		bfs: bfs.NewScratch(), col: coloring.NewScratch(), cmp: components.NewScratch(),
		state: irregular.InitialState(g.NumVertices()),
	}
}

func (r *rig) close() {
	r.team.Close()
	r.pool.Close()
}

// setCounters attaches (or, with nil, detaches) scheduler counters.
func (r *rig) setCounters(c *telemetry.Counters) {
	r.team.SetCounters(c)
	r.pool.SetCounters(c)
}

// oracle is the sequential reference the parallel results of one graph are
// checked against.
type oracle struct {
	components int
	irregular  []float64
}

// newOracle runs the sequential references. With falsify set the component
// count is off by one: the -break-oracle self-test.
func newOracle(g *graph.Graph, state []float64, falsify bool) *oracle {
	or := &oracle{
		components: components.Sequential(g).Count,
		irregular:  irregular.Sequential(g, state, irregularIters),
	}
	if falsify {
		or.components++
	}
	return or
}

// Checks shared by the end-to-end pass and the ladder.

func checkBFS(in *graphInput, si int, res bfs.Result) error {
	if err := bfs.Validate(in.g, in.sources[si], res.Levels); err != nil {
		return err
	}
	if res.NumLevels != in.levels[si] {
		return fmt.Errorf("%d levels, sequential BFS has %d", res.NumLevels, in.levels[si])
	}
	return nil
}

func checkComponents(g *graph.Graph, res components.Result, want int) error {
	if err := components.Validate(g, res.Labels); err != nil {
		return err
	}
	if res.Count != want {
		return fmt.Errorf("%d components, sequential reference has %d", res.Count, want)
	}
	return nil
}

func checkIrregular(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values for %d vertices", len(got), len(want))
	}
	if d := irregular.MaxAbsDiff(got, want); d > 1e-9 {
		return fmt.Errorf("differs from the sequential kernel by %g", d)
	}
	return nil
}

// passKernels maps each end-to-end kernel to its rung of the ladder.
var passKernels = func() (out [numKernels]*kernelVariant) {
	names := [numKernels]string{
		kBFS: "bfs.block_relaxed", kHybrid: "bfs.hybrid", kColor: "coloring.team",
		kIrregular: "irregular.team", kComponents: "components.labelprop",
	}
	for k, name := range names {
		for i := range kernelVariants {
			if kv := &kernelVariants[i]; kv.layer+"."+kv.name == name {
				out[k] = kv
			}
		}
	}
	return out
}()

// pass runs the five end-to-end kernels once, in fixed order, from source
// p mod numSources, and returns each kernel's time in seconds. With run != nil
// the results are also checked against or (the timings of such a pass are
// not used): BFS answers depend on the source and are checked from each, the
// other kernels' do not and are checked on the first source's pass only.
// parent is the trace span the kernel spans hang under.
func (r *rig) pass(ctx context.Context, in *graphInput, p int, tr *tracer, parent int, run *run, or *oracle) ([numKernels]float64, error) {
	var times [numKernels]float64
	si := p % numSources
	for k, kv := range passKernels {
		id := tr.begin(parent, kv.layer, kernelMetric[k])
		t := time.Now()
		check, err := kv.run(ctx, r, in, si, or)
		times[k] = time.Since(t).Seconds()
		tr.end(id, nil)
		if err != nil {
			return times, fmt.Errorf("%s: %w", kernelMetric[k], err)
		}
		if run != nil && (kv.layer == "bfs" || si == 0) {
			run.check(fmt.Sprintf("%s %s.%s source %d", in.spec, kv.layer, kv.name, in.sources[si]), check())
		}
	}
	return times, nil
}

// work returns the throughput numerators of the five kernels for a pass
// from source si: computed from the graph, identical for every variant.
func (in *graphInput) work(si int) [numKernels]float64 {
	arcs := float64(in.g.NumArcs())
	reach := float64(in.reach[si])
	return [numKernels]float64{
		kBFS: reach, kHybrid: reach,
		kColor:      arcs,
		kIrregular:  arcs * irregularIters,
		kComponents: arcs,
	}
}

// kernelSamples are the readings of timed passes, kept apart by BFS source:
// a pass from another source is another amount of BFS work, and the median
// of a mixture of four distributions would jump between them.
type kernelSamples struct {
	secs   [numKernels][numSources][]float64 // kernel time per pass
	passS  [numSources][]float64             // whole pass
	passes int
}

// add books pass p.
func (ks *kernelSamples) add(p int, times [numKernels]float64, pass time.Duration) {
	si := p % numSources
	for k, t := range times {
		ks.secs[k][si] = append(ks.secs[k][si], t)
	}
	ks.passS[si] = append(ks.passS[si], pass.Seconds())
	ks.passes++
}

// rate is kernel k's throughput in M work units per second: the work from
// every source over the sum of each source's median time.
func (ks *kernelSamples) rate(in *graphInput, k int) float64 {
	var work, secs float64
	for si := range ks.secs[k] {
		if len(ks.secs[k][si]) > 0 {
			work += in.work(si)[k]
			secs += median(ks.secs[k][si])
		}
	}
	return work / secs / 1e6
}

// opMS is the typical pass in ms: the mean over the sources of each
// source's median pass.
func (ks *kernelSamples) opMS() float64 {
	var sum, n float64
	for _, s := range ks.passS {
		if len(s) > 0 {
			sum += median(s)
			n++
		}
	}
	return 1000 * sum / n
}

// kernelLoop runs timed passes until budget has elapsed, and at least
// minPasses of them. Every pass runs each kernel once, so a noisy interval
// on a shared box hits all five metrics alike.
func (r *rig) kernelLoop(ctx context.Context, in *graphInput, ks *kernelSamples, minPasses int, budget time.Duration) error {
	start := time.Now()
	first := ks.passes
	for p := first; p-first < minPasses || time.Since(start) < budget; p++ {
		t := time.Now()
		times, err := r.pass(ctx, in, p, nil, 0, nil, nil)
		if err != nil {
			return err
		}
		ks.add(p, times, time.Since(t))
	}
	return nil
}

// graphSetup is one full set-up of a graph workload: generate the graph,
// build the rig, and run one first-touch pass so every scratch array has
// been grown and faulted in.
func graphSetup(ctx context.Context, gs graphSpec, seed uint64, w int) (*graphInput, *rig, genTimes, error) {
	g, gt, err := buildGraph(gs)
	if err != nil {
		return nil, nil, gt, err
	}
	in := &graphInput{spec: gs, g: g}
	if err := pickSources(in, seed); err != nil {
		return nil, nil, gt, err
	}
	rg := newRig(g, w)
	if _, err := rg.pass(ctx, in, 0, nil, 0, nil, nil); err != nil {
		rg.close()
		return nil, nil, gt, err
	}
	return in, rg, gt, nil
}

// Set-up is repeated for setupBudget, and at most maxSetups times in all;
// setup_s is the median. A set-up that alone takes longer than the budget
// (rmat-shuffled: 7 s of generating and shuffling) is timed once.
const (
	setupBudget = 3500 * time.Millisecond
	maxSetups   = 25
)

// setupTimer times a workload's set-up. The first set-up is the one the
// workload runs on; the remaining ones only feed the median and happen after
// the timed phase (see finish), so the timed phase sees the heap of a process
// that has set up once, as a user's would — not a heap full of scavenged
// pages left by earlier copies of the inputs, which costs the allocating
// sequential kernels a third of their speed.
type setupTimer struct {
	setup func() (teardown func(), err error)
	secs  []float64
}

// first runs the set-up the workload keeps and returns its teardown.
func (st *setupTimer) first() (teardown func(), err error) {
	t := time.Now()
	teardown, err = st.setup()
	st.secs = append(st.secs, time.Since(t).Seconds())
	return teardown, err
}

// finish, called once the first set-up has been torn down, repeats the
// set-up while another one still fits into budget, returning each copy's
// memory to the system before the next, and reports the median time in
// seconds.
func (st *setupTimer) finish(budget time.Duration) (float64, error) {
	start := time.Now()
	for len(st.secs) < maxSetups {
		last := time.Duration(st.secs[len(st.secs)-1] * float64(time.Second))
		if time.Since(start)+last > budget {
			break
		}
		debug.FreeOSMemory()
		teardown, err := st.first()
		if err != nil {
			return 0, err
		}
		teardown()
	}
	return median(st.secs), nil
}

// setupRepeat is how long this run repeats its set-up for: traced and smoke
// runs report no setup_s and set up once.
func (r *run) setupRepeat() time.Duration {
	if r.cfg.trace || r.cfg.smoke {
		return 0
	}
	return setupBudget
}

// graphWorkload is mesh-large, mesh-small and rmat-shuffled: the five
// kernels on one graph.
func (r *run) graphWorkload() error {
	ctx := context.Background()
	gs := kernelGraph(r.cfg.workload, r.cfg.smoke)
	root := r.tr.begin(0, "bench", r.cfg.workload)
	defer func() { r.tr.end(root, nil) }()

	var in *graphInput
	var rg *rig
	var gt genTimes
	st := &setupTimer{setup: func() (func(), error) {
		var err error
		in, rg, gt, err = graphSetup(ctx, gs, r.cfg.seed, r.w)
		if err != nil {
			return nil, err
		}
		return func() { rg.close(); in, rg = nil, nil }, nil
	}}
	sid := r.tr.begin(root, "bench", "setup")
	teardown, err := st.first()
	r.tr.end(sid, nil)
	if err != nil {
		return err
	}
	r.describeGraph(in)

	// Correctness gate, untimed: one pass per source, every result against
	// the sequential oracle. It doubles as the warm-up of sources 1..3.
	vid := r.tr.begin(root, "bench", "validate")
	or := newOracle(in.g, rg.state, r.cfg.breakOracle)
	for p := 0; p < numSources; p++ {
		if _, err := rg.pass(ctx, in, p, nil, 0, r, or); err != nil {
			return err
		}
	}
	r.tr.end(vid, nil)

	if r.cfg.trace {
		defer teardown()
		return r.tracedGraphRun(ctx, root, in, rg, gt)
	}
	var ks kernelSamples
	err = rg.kernelLoop(ctx, in, &ks, r.minOps(8), r.budget())
	if err == nil {
		r.setKernelRates(in, &ks)
	}
	teardown()
	if err != nil {
		return err
	}
	setupS, err := st.finish(r.setupRepeat())
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)
	r.set("op_ms", ks.opMS())
	r.set("ops_per_s", 1000/ks.opMS()) // one caller, one pass at a time
	r.rep.Samples["passes"] = ks.passes
	r.rep.Samples["setups"] = len(st.secs)
	r.op(ks.passes, 0)
	return nil
}

func (r *run) setKernelRates(in *graphInput, ks *kernelSamples) {
	for k, name := range kernelMetric {
		r.set(name, ks.rate(in, k))
	}
	r.rep.Samples["kernel_passes"] = ks.passes
}

// budget is the length of the timed phase; a smoke run only does the
// minimum number of operations.
func (r *run) budget() time.Duration {
	if r.cfg.smoke {
		return 0
	}
	return time.Duration(r.cfg.seconds * float64(time.Second))
}

// minOps is the least number of timed operations a loop runs regardless of
// the budget: full in a real run, two in a smoke run.
func (r *run) minOps(full int) int {
	if r.cfg.smoke {
		return 2
	}
	return full
}

func (r *run) describeGraph(in *graphInput) {
	h := sha256.New()
	hashGraph(h, in.g)
	fmt.Fprintf(h, "sources %v\n", in.sources)
	r.rep.InputHash = hexSum(h)
	r.rep.Inputs["graph"] = in.spec.String()
	r.rep.Inputs["vertices"] = in.g.NumVertices()
	r.rep.Inputs["arcs"] = in.g.NumArcs()
	r.rep.Inputs["bfs_sources"] = in.sources
	r.rep.Inputs["bfs_levels"] = in.levels
}
