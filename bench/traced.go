package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"micgraph/internal/cluster"
	"micgraph/internal/core"
	"micgraph/internal/mic"
	"micgraph/internal/sched"
	"micgraph/internal/serve"
	"micgraph/internal/telemetry"
)

// ladderState is what a traced run has already built or measured by the time
// it reaches the ladder; the ladder builds the rest on small fixed inputs.
type ladderState struct {
	in *graphInput // kernel graph and rig (always present)
	rg *rig
	gt genTimes // how long the kernel graph took to generate

	suite  *core.Suite // figures only: the suite and its per-pass readings
	suiteS float64
	core   []corePass

	sr    *serveRig // serve-mix only: the live daemon and its traced jobs
	serve *serveReading
}

// ladder climbs every rung. budget is shared out: half to the kernel rungs,
// the rest is fixed-size work.
func (r *run) ladder(ctx context.Context, parent int, ls ladderState) error {
	or := newOracle(ls.in.g, ls.rg.state, false)
	if err := r.kernelRungs(ctx, parent, ls.in, ls.rg, or, r.minOps(2), r.budget()/2); err != nil {
		return err
	}
	if err := r.instrumentedRungs(ctx, parent, ls.in, ls.rg); err != nil {
		return err
	}
	if err := r.schedRungs(parent); err != nil {
		return err
	}
	if err := r.genRungs(parent, ls); err != nil {
		return err
	}
	suite, err := r.coreRungs(parent, ls)
	if err != nil {
		return err
	}
	if err := r.micRungs(parent, suite); err != nil {
		return err
	}
	return r.serveRungs(parent, ls)
}

// genRungs reports generation cost and CSR size. The stages the workload's
// own graph went through are the workload's readings; the others are taken
// on pwtk@4 and a shuffled RMAT-14.
func (r *run) genRungs(parent int, ls ladderState) error {
	rung := r.tr.begin(parent, "gen", "gen rungs")
	defer func() { r.tr.end(rung, nil) }()
	gt := ls.gt
	if gt.mesh == 0 {
		_, d, err := buildMesh("pwtk", 4)
		if err != nil {
			return err
		}
		gt.mesh = d
	}
	if gt.rmat == 0 {
		scale := 14
		if r.cfg.smoke {
			scale = 10
		}
		_, small, err := buildGraph(graphSpec{rmatScale: scale})
		if err != nil {
			return err
		}
		gt.rmat, gt.shuffle = small.rmat, small.shuffle
	}
	r.set("gen.mesh_s", gt.mesh)
	r.set("gen.rmat_s", gt.rmat)
	r.set("graph.shuffle_s", gt.shuffle)
	r.set("graph.csr_mb", float64(serve.GraphBytes(ls.in.g))/1e6)
	return nil
}

// corePass is one regeneration of the figures, timed figure by figure.
type corePass struct {
	figMS   [12]float64
	jsonMS  float64
	totalMS float64
	allocs  float64
	bytes   float64
	sha     string
}

// tracedFiguresPass does the work of figuresPass one experiment at a time
// (core.All's order), under a span each.
func (r *run) tracedFiguresPass(parent int, suite *core.Suite, knf, host *mic.Machine) (corePass, error) {
	var cp corePass
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pid := r.tr.begin(parent, "core", "figures pass")
	start := time.Now()
	exps := make([]*core.Experiment, 0, len(figureIDs))
	for i, id := range figureIDs {
		sid := r.tr.begin(pid, "core", id)
		t := time.Now()
		e, err := core.ByID(id, suite, knf, host)
		cp.figMS[i] = ms(time.Since(t))
		r.tr.end(sid, nil)
		if err != nil {
			return cp, err
		}
		exps = append(exps, e)
	}
	sid := r.tr.begin(pid, "core", "WriteJSON")
	t := time.Now()
	var buf bytes.Buffer
	err := core.WriteJSON(&buf, exps)
	cp.jsonMS = ms(time.Since(t))
	r.tr.end(sid, nil)
	if err != nil {
		return cp, fmt.Errorf("core.WriteJSON: %w", err)
	}
	cp.totalMS = ms(time.Since(start))
	r.tr.end(pid, nil)
	runtime.ReadMemStats(&m1)
	cp.allocs = float64(m1.Mallocs - m0.Mallocs)
	cp.bytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	cp.sha = sha256Hex(buf.Bytes())
	return cp, nil
}

// coreRungs reports the per-figure cost of the experiment engine. On figures
// the traced main loop has already taken the readings; elsewhere one warm-up
// and one timed pass on a fresh suite do.
func (r *run) coreRungs(parent int, ls ladderState) (*core.Suite, error) {
	rung := r.tr.begin(parent, "core", "core rungs")
	defer func() { r.tr.end(rung, nil) }()
	suite, suiteS, passes := ls.suite, ls.suiteS, ls.core
	if suite == nil {
		t := time.Now()
		s, err := core.NewSuite(figuresScale(r.cfg.smoke))
		if err != nil {
			return nil, err
		}
		suite, suiteS = s, time.Since(t).Seconds()
		knf, host := mic.KNF(), mic.HostXeon()
		sha := &shaChecker{r: r}
		for i := 0; i < 2; i++ {
			cp, err := r.tracedFiguresPass(rung, suite, knf, host)
			if err != nil {
				return nil, err
			}
			sha.check(fmt.Sprintf("ladder pass %d", i), cp.sha)
			passes = []corePass{cp} // keep the warm one
		}
	}
	r.set("core.suite_build_s", suiteS)
	col := func(f func(corePass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, cp := range passes {
			xs[i] = f(cp)
		}
		return median(xs)
	}
	for i, id := range figureIDs {
		r.set("core.fig."+id+"_ms", col(func(cp corePass) float64 { return cp.figMS[i] }))
	}
	r.set("core.write_json_ms", col(func(cp corePass) float64 { return cp.jsonMS }))
	r.set("core.allocs_per_pass", col(func(cp corePass) float64 { return cp.allocs }))
	r.set("core.bytes_per_pass", col(func(cp corePass) float64 { return cp.bytes }))
	return suite, nil
}

// micRungs times the simulator's trace builders and its event loop on hood
// from the suite. Simulated statistics (chunks, cycles) must not move with a
// change that only makes the simulator faster.
func (r *run) micRungs(parent int, suite *core.Suite) error {
	rung := r.tr.begin(parent, "mic", "mic rungs")
	defer func() { r.tr.end(rung, nil) }()
	g, _, err := suite.Find("hood")
	if err != nil {
		return err
	}
	const threads, reps = 121, 5
	knf := mic.KNF()
	var coloringTrace *mic.Trace
	builders := []struct {
		metric string
		build  func()
	}{
		{"mic.trace.coloring_ms", func() { coloringTrace = mic.ColoringTrace(knf, g, mic.NaturalOrder, threads) }},
		{"mic.trace.bfs_ms", func() {
			mic.BFSTrace(knf, g, int32(g.NumVertices()/2), mic.NaturalOrder, mic.BFSBlockRelaxed, bfsBlock)
		}},
		{"mic.trace.irregular_ms", func() { mic.IrregularTrace(knf, g, mic.NaturalOrder, irregularIters) }},
	}
	for _, b := range builders {
		var xs []float64
		for i := 0; i < reps; i++ {
			id := r.tr.begin(rung, "mic", b.metric)
			t := time.Now()
			b.build()
			xs = append(xs, ms(time.Since(t)))
			r.tr.end(id, nil)
		}
		r.set(b.metric, median(xs))
	}

	configs := []mic.Config{
		{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: loopGrain},
		{Kind: mic.Cilk, Chunk: loopGrain},
		{Kind: mic.TBB, Partitioner: sched.SimplePartitioner, Chunk: loopGrain},
	}
	var chunks int
	var cycles float64
	for i, cfg := range configs {
		var xs []float64
		var st mic.SimStats
		for rep := 0; rep < reps; rep++ {
			st = mic.SimStats{}
			id := r.tr.begin(rung, "mic", "simulate "+simRuntimes[i])
			t := time.Now()
			c := mic.SimulateObserved(knf, cfg, threads, coloringTrace, nil, &st)
			xs = append(xs, float64(time.Since(t).Nanoseconds())/float64(max(st.Chunks, 1)))
			r.tr.end(id, map[string]any{"chunks": st.Chunks, "cycles": c})
			if i == 0 {
				cycles = c
			}
		}
		chunks += st.Chunks
		r.set("mic.sim."+simRuntimes[i]+".ns_per_chunk", median(xs))
	}
	var m0, m1 runtime.MemStats
	var st mic.SimStats
	runtime.ReadMemStats(&m0)
	mic.SimulateObserved(knf, configs[0], threads, coloringTrace, nil, &st)
	runtime.ReadMemStats(&m1)
	r.set("mic.sim.allocs_per_chunk", float64(m1.Mallocs-m0.Mallocs)/float64(max(st.Chunks, 1)))
	r.set("mic.sim.bytes_per_chunk", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(max(st.Chunks, 1)))
	r.set("mic.sim.chunks", float64(chunks))
	r.set("mic.sim.cycles", cycles)
	return nil
}

// serveReading is what a run of traced decks yields.
type serveReading struct {
	samples   []jobSample
	cache0    serve.CacheStats
	cache1    serve.CacheStats
	rejected  int64
	firstDeck []jobCase
}

// tracedDecks runs decks with span read-back until budget has elapsed (at
// least minDecks).
func (r *run) tracedDecks(parent int, sr *serveRig, firstCycle, minDecks int, budget time.Duration) *serveReading {
	rd := &serveReading{cache0: sr.d.srv.Cache().Stats()}
	start := time.Now()
	for i := 0; i < minDecks || time.Since(start) < budget; i++ {
		deck := sr.m.deck(r.cfg.seed, firstCycle+i)
		if i == 0 {
			rd.firstDeck = deck
		}
		id := r.tr.begin(parent, "serve", fmt.Sprintf("deck %d", firstCycle+i))
		samples, _ := sr.runDeck(deck, sr.clients, false, r.tr, id)
		r.tr.end(id, nil)
		r.tally(samples)
		rd.samples = append(rd.samples, samples...)
	}
	rd.cache1 = sr.d.srv.Cache().Stats()
	rd.rejected = sr.d.srv.Totals().Rejected
	return rd
}

// serveRungs reports the daemon's span breakdown and the cluster hop. On
// serve-mix the traced main loop took the serve readings on the live daemon;
// elsewhere a daemon is started here and serves one warm-up and one traced
// deck.
func (r *run) serveRungs(parent int, ls ladderState) error {
	rung := r.tr.begin(parent, "serve", "serve rungs")
	defer func() { r.tr.end(rung, nil) }()
	sr, rd := ls.sr, ls.serve
	if sr == nil {
		var err error
		if sr, err = newServeRig(r.cfg.smoke); err != nil {
			return err
		}
		defer sr.close()
		if err := sr.setup(r.w); err != nil {
			return err
		}
		warm, _ := sr.runDeck(sr.m.deck(r.cfg.seed, 0), sr.clients, false, nil, 0)
		r.tally(warm)
		rd = r.tracedDecks(rung, sr, 1, 1, 0)
	}

	pick := func(keep func(jobSample) bool, f func(jobSample) float64) float64 {
		var xs []float64
		for _, s := range rd.samples {
			if s.spanned && keep(s) {
				xs = append(xs, f(s))
			}
		}
		return median(xs)
	}
	all := func(jobSample) bool { return true }
	nsMS := func(ns int64) float64 { return float64(ns) / 1e6 }
	r.set("serve.queue_ms", pick(all, func(s jobSample) float64 { return nsMS(s.spans.QueueNS) }))
	r.set("serve.cache_hit_ms", pick(func(s jobSample) bool { return s.hit }, func(s jobSample) float64 { return nsMS(s.spans.CacheNS) }))
	r.set("serve.cache_miss_ms", pick(func(s jobSample) bool { return !s.hit }, func(s jobSample) float64 { return nsMS(s.spans.CacheNS) }))
	r.set("serve.exec_ms", pick(all, func(s jobSample) float64 { return nsMS(s.spans.ExecNS) }))
	r.set("serve.flush_ms", pick(all, func(s jobSample) float64 { return nsMS(s.spans.FlushNS) }))
	for _, layer := range serveExecKinds {
		r.set("serve.exec_ms."+layer, pick(
			func(s jobSample) bool { return servedVariants[s.variant].layer == layer },
			func(s jobSample) float64 { return nsMS(s.spans.ExecNS) }))
	}
	r.set("serve.client_overhead_ms", pick(all, func(s jobSample) float64 { return s.latMS - nsMS(s.spans.TotalNS) }))
	hits := float64(rd.cache1.Hits - rd.cache0.Hits)
	misses := float64(rd.cache1.Misses - rd.cache0.Misses)
	r.set("serve.cache.hit_ratio", hits/max(hits+misses, 1))
	r.set("serve.cache.evictions", float64(rd.cache1.Evictions-rd.cache0.Evictions))
	r.set("serve.rejected", float64(rd.rejected))
	lats := make([]float64, len(rd.samples))
	for i, s := range rd.samples {
		lats[i] = s.latMS
	}
	r.set("job_p99_ms", percentile(lats, 99))
	r.rep.Samples["traced_jobs"] = len(lats)
	r.note("tail_percentile_supported", tailPercentile(len(lats)))

	return r.clusterRungs(rung, sr, rd.firstDeck)
}

// clusterRungs replays the hit jobs of one deck twice with a single client:
// straight at the daemon, and through the node of a three-node cluster that
// is outside the job's replica set, so every job pays exactly one proxy hop.
// Scale-out is parked; the rung exists so that a proxy change is visible.
func (r *run) clusterRungs(parent int, sr *serveRig, deck []jobCase) error {
	rung := r.tr.begin(parent, "cluster", "cluster rungs")
	defer func() { r.tr.end(rung, nil) }()
	var hits []jobCase
	for _, jc := range deck {
		if jc.hit {
			hits = append(hits, jc)
		}
	}
	if !r.cfg.smoke && len(hits) > 63 {
		hits = hits[:63]
	}

	direct, _ := sr.runDeck(hits, 1, false, nil, 0)
	directLats := r.tally(direct)

	const nodes, replication = 3, 2
	tc, err := cluster.StartTestCluster(nodes, cluster.TestClusterOptions{
		Serve:   serve.Config{Workers: 1, KernelWorkers: r.w, QueueDepth: 16, CacheBytes: sr.cacheBytes()},
		Cluster: cluster.Config{Replication: replication},
	})
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	defer tc.Close()
	ring := tc.Nodes[0].Ring()
	entry := func(jc jobCase) string {
		reps := ring.Replicas(jc.spec.PlacementKey(), replication)
		for i, n := range tc.Nodes {
			outside := true
			for _, rep := range reps {
				if rep == n.Self() {
					outside = false
				}
			}
			if outside {
				return tc.URLs[i]
			}
		}
		return tc.URLs[0]
	}
	// hop submits the jobs one after another, each through its entry node.
	hop := func(traced bool) []float64 {
		var lats []float64
		for _, jc := range hits {
			t := time.Now()
			_, line, lat, err := submit(sr.hc, entry(jc), jc.spec)
			if err == nil {
				err = sr.oracles[jc.spec.Graph.Key()].verify(jc.spec.Kind, line, false)
			}
			r.check(fmt.Sprintf("cluster job %s/%s on %s", jc.spec.Kind, jc.spec.Variant, jc.spec.Graph.Key()), err)
			if traced {
				r.tr.add(rung, "cluster", jc.spec.Kind+"/"+jc.spec.Variant, 1, t, lat, map[string]any{"graph": jc.spec.Graph.Key()})
			}
			lats = append(lats, ms(lat))
		}
		return lats
	}
	hop(false) // every shard generates its graphs
	lats := hop(true)
	r.set("cluster.hop_p50_ms", median(lats))
	r.set("cluster.hop_overhead_ms", median(lats)-median(directLats))

	const lookups = 20000
	key := hits[0].spec.PlacementKey()
	t := time.Now()
	for i := 0; i < lookups; i++ {
		ring.Owner(key)
	}
	r.set("cluster.ring.owner_ns", float64(time.Since(t).Nanoseconds())/lookups)
	return nil
}

// overheadPct is the traced run's cost: how much slower the median traced
// operation was than the median untraced one, in percent.
func overheadPct(untraced, traced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return 100 * (median(traced) - u) / u
}

// tracedGraphRun is the -trace 1 half of a graph workload: passes alternate
// between untraced and traced (spans, counters and a phase recorder
// attached) for a quarter of the budget, then the ladder.
func (r *run) tracedGraphRun(ctx context.Context, root int, in *graphInput, rg *rig, gt genTimes) error {
	loop := r.tr.begin(root, "bench", "traced passes")
	var plain, traced []float64
	counters := telemetry.NewCounters(r.w)
	rec := telemetry.NewMemRecorder()
	tctx := telemetry.WithRecorder(ctx, rec)
	start := time.Now()
	for p := 0; p < r.minOps(3) || time.Since(start) < r.budget()/4; p++ {
		t := time.Now()
		if _, err := rg.pass(ctx, in, p, nil, 0, nil, nil); err != nil {
			return err
		}
		plain = append(plain, ms(time.Since(t)))

		rg.setCounters(counters)
		rec.Reset()
		id := r.tr.begin(loop, "bench", fmt.Sprintf("pass %d", p))
		t = time.Now()
		_, err := rg.pass(tctx, in, p, r.tr, id, nil, nil)
		traced = append(traced, ms(time.Since(t)))
		r.tr.end(id, nil)
		rg.setCounters(nil)
		if err != nil {
			return err
		}
	}
	r.tr.end(loop, nil)
	r.op(len(plain)+len(traced), 0)
	r.set("trace_overhead_pct", overheadPct(plain, traced))
	r.rep.Samples["traced_passes"] = len(traced)
	return r.ladder(ctx, root, ladderState{in: in, rg: rg, gt: gt})
}

// tracedFiguresRun alternates plain and span-wrapped figure passes, then
// climbs the ladder with the probe graph as kernel graph.
func (r *run) tracedFiguresRun(ctx context.Context, root int, suite *core.Suite, suiteS float64,
	knf, host *mic.Machine, sha *shaChecker, in *graphInput, rg *rig) error {

	loop := r.tr.begin(root, "bench", "traced passes")
	var plain, traced []float64
	var passes []corePass
	start := time.Now()
	for p := 0; p < r.minOps(2) || time.Since(start) < r.budget()/4; p++ {
		t := time.Now()
		digest, err := figuresPass(suite, knf, host)
		if err != nil {
			return err
		}
		plain = append(plain, ms(time.Since(t)))
		sha.check(fmt.Sprintf("pass %d", p), digest)

		cp, err := r.tracedFiguresPass(loop, suite, knf, host)
		if err != nil {
			return err
		}
		traced = append(traced, cp.totalMS)
		sha.check(fmt.Sprintf("traced pass %d", p), cp.sha)
		passes = append(passes, cp)
	}
	r.tr.end(loop, nil)
	r.set("trace_overhead_pct", overheadPct(plain, traced))
	r.rep.Samples["traced_passes"] = len(traced)
	return r.ladder(ctx, root, ladderState{in: in, rg: rg, suite: suite, suiteS: suiteS, core: passes})
}

// tracedServeRun alternates untraced and traced decks on the live daemon,
// then climbs the ladder with pwtk at the daemon's default scale as kernel
// graph.
func (r *run) tracedServeRun(root int, sr *serveRig) error {
	ctx := context.Background()
	loop := r.tr.begin(root, "bench", "traced decks")
	rd := &serveReading{cache0: sr.d.srv.Cache().Stats()}
	var plain, traced []float64
	start := time.Now()
	cycle := 1
	for i := 0; i < r.minOps(2) || time.Since(start) < r.budget()/4; i++ {
		samples, _ := sr.runDeck(sr.m.deck(r.cfg.seed, cycle), sr.clients, false, nil, 0)
		plain = append(plain, r.tally(samples)...)
		cycle++

		one := r.tracedDecks(loop, sr, cycle, 1, 0)
		if rd.firstDeck == nil {
			rd.firstDeck = one.firstDeck
		}
		for _, s := range one.samples {
			traced = append(traced, s.latMS)
		}
		rd.samples = append(rd.samples, one.samples...)
		cycle++
	}
	rd.cache1 = sr.d.srv.Cache().Stats()
	rd.rejected = sr.d.srv.Totals().Rejected
	r.tr.end(loop, nil)
	r.set("trace_overhead_pct", overheadPct(plain, traced))

	gs := kernelGraph(r.cfg.workload, r.cfg.smoke)
	in, rg, gt, err := graphSetup(ctx, gs, r.cfg.seed, r.w)
	if err != nil {
		return err
	}
	defer rg.close()
	return r.ladder(ctx, root, ladderState{in: in, rg: rg, gt: gt, sr: sr, serve: rd})
}
