package micgraph

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (regenerating the experiment end-to-end on an 8x-shrunk suite,
// so `go test -bench .` finishes in minutes; use cmd/micbench -scale 1 for
// the paper-scale numbers recorded in EXPERIMENTS.md), plus microbenchmarks
// of the real parallel kernels and the simulator itself.

import (
	"context"
	"sync"
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/core"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/irregular"
	"micgraph/internal/mic"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

const benchScale = 8

var (
	benchSuiteOnce sync.Once
	benchSuite     *core.Suite
)

func getBenchSuite(b *testing.B) *core.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		s, err := core.NewSuite(benchScale)
		if err != nil {
			panic(err)
		}
		// Materialise the lazily shuffled copies now: at a short -benchtime
		// Fig2's first iteration is its only one, and bench_diff.sh gates
		// its allocs/op.
		s.Shuffled()
		benchSuite = s
	})
	return benchSuite
}

// benchExperiment regenerates one experiment per iteration through core.ByID,
// as a caller does: each call makes its worker team.
func benchExperiment(b *testing.B, id string) {
	s := getBenchSuite(b)
	knf, host := mic.KNF(), mic.HostXeon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := core.ByID(id, s, knf, host)
		if err != nil {
			b.Fatal(err)
		}
		if len(exp.Series) == 0 && len(exp.Rows) == 0 {
			b.Fatal("empty experiment")
		}
	}
}

// --- One benchmark per table/figure -------------------------------------

func BenchmarkTable1(b *testing.B)               { benchExperiment(b, "table1") }
func BenchmarkFig1aColoringOpenMP(b *testing.B)  { benchExperiment(b, "fig1a") }
func BenchmarkFig1bColoringCilk(b *testing.B)    { benchExperiment(b, "fig1b") }
func BenchmarkFig1cColoringTBB(b *testing.B)     { benchExperiment(b, "fig1c") }
func BenchmarkFig2ColoringShuffled(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3aIrregularOpenMP(b *testing.B) { benchExperiment(b, "fig3a") }
func BenchmarkFig3bIrregularCilk(b *testing.B)   { benchExperiment(b, "fig3b") }
func BenchmarkFig3cIrregularTBB(b *testing.B)    { benchExperiment(b, "fig3c") }
func BenchmarkFig4aBFSPwtk(b *testing.B)         { benchExperiment(b, "fig4a") }
func BenchmarkFig4bBFSInline1(b *testing.B)      { benchExperiment(b, "fig4b") }
func BenchmarkFig4cBFSAllMIC(b *testing.B)       { benchExperiment(b, "fig4c") }
func BenchmarkFig4dBFSHost(b *testing.B)         { benchExperiment(b, "fig4d") }
func BenchmarkAblationBlockSize(b *testing.B)    { benchExperiment(b, "abl-blocksize") }

// --- Real parallel kernels (goroutine execution, not simulation) ---------

func benchGraph(b *testing.B, name string) *Graph {
	b.Helper()
	g, err := SuiteGraph(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkKernelSeqGreedyColoring(b *testing.B) {
	g := benchGraph(b, "hood")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := coloring.SeqGreedy(g); res.NumColors == 0 {
			b.Fatal("no colors")
		}
	}
}

func BenchmarkKernelColoringTeamDynamic(b *testing.B) {
	g := benchGraph(b, "hood")
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
	scratch := coloring.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.ColorTeam(nil, g, team, opts)
		if err != nil || res.NumColors == 0 {
			b.Fatal("no colors")
		}
	}
}

func BenchmarkKernelColoringCilkHolder(b *testing.B) {
	g := benchGraph(b, "hood")
	pool := sched.NewPool(4)
	defer pool.Close()
	scratch := coloring.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.ColorCilk(nil, g, pool, 100, coloring.CilkHolder)
		if err != nil || res.NumColors == 0 {
			b.Fatal("no colors")
		}
	}
}

func BenchmarkKernelColoringTBBSimple(b *testing.B) {
	g := benchGraph(b, "hood")
	pool := sched.NewPool(4)
	defer pool.Close()
	scratch := coloring.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.ColorTBB(nil, g, pool, sched.SimplePartitioner, 40)
		if err != nil || res.NumColors == 0 {
			b.Fatal("no colors")
		}
	}
}

func BenchmarkKernelBFSSequential(b *testing.B) {
	g := benchGraph(b, "pwtk")
	src := int32(g.NumVertices() / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := bfs.Sequential(g, src); res.NumLevels == 0 {
			b.Fatal("no levels")
		}
	}
}

func BenchmarkKernelBFSBlockRelaxed(b *testing.B) {
	g := benchGraph(b, "pwtk")
	src := int32(g.NumVertices() / 2)
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
	scratch := bfs.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.BlockTeam(nil, g, src, team, opts, 32, true)
		if err != nil || res.NumLevels == 0 {
			b.Fatal("no levels")
		}
	}
}

func BenchmarkKernelBFSBag(b *testing.B) {
	g := benchGraph(b, "pwtk")
	src := int32(g.NumVertices() / 2)
	pool := sched.NewPool(4)
	defer pool.Close()
	scratch := bfs.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.BagCilk(nil, g, src, pool, 0)
		if err != nil || res.NumLevels == 0 {
			b.Fatal("no levels")
		}
	}
}

func BenchmarkKernelBFSTLS(b *testing.B) {
	g := benchGraph(b, "pwtk")
	src := int32(g.NumVertices() / 2)
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
	scratch := bfs.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.TLSTeam(nil, g, src, team, opts)
		if err != nil || res.NumLevels == 0 {
			b.Fatal("no levels")
		}
	}
}

func BenchmarkKernelIrregularIter1(b *testing.B) {
	benchIrregular(b, 1)
}

func BenchmarkKernelIrregularIter10(b *testing.B) {
	benchIrregular(b, 10)
}

func benchIrregular(b *testing.B, iter int) {
	g := benchGraph(b, "msdoor")
	state := irregular.InitialState(g.NumVertices())
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := irregular.TeamCtx(nil, g, state, iter, team, opts)
		if err != nil || out[0] < 0 {
			b.Fatal("bad state")
		}
	}
}

// --- Simulator and generator benchmarks ----------------------------------

func BenchmarkSimulateColoring121Threads(b *testing.B) {
	m := mic.KNF()
	g := benchGraph(b, "ldoor")
	tr := mic.ColoringTrace(m, g, mic.NaturalOrder, 121)
	cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mic.Simulate(m, cfg, 121, tr) <= 0 {
			b.Fatal("bad time")
		}
	}
}

func BenchmarkTraceBuildBFS(b *testing.B) {
	m := mic.KNF()
	g := benchGraph(b, "ldoor")
	src := int32(g.NumVertices() / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := mic.BFSTrace(m, g, src, mic.NaturalOrder, mic.BFSBlockRelaxed, 32)
		if len(tr.Phases) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// A suite stand-in, ns per arc of the graph returned and allocations that
// must not grow with the vertex count: bmw3_2 at the test scale, and two at the
// daemon's — msdoor is 91 % clique edges, inline_1 69 %, the most strays of the
// seven.

func benchmarkGenMesh(b *testing.B, name string, scale int) {
	cfg, err := gen.SuiteConfig(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg = gen.Scaled(cfg, scale)
	var g *graph.Graph
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g, err = gen.Mesh(cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportPerArc(b, g)
}

func BenchmarkGenerateSuiteGraph(b *testing.B)   { benchmarkGenMesh(b, "bmw3_2", benchScale) }
func BenchmarkGenMeshMsdoor4(b *testing.B)       { benchmarkGenMesh(b, "msdoor", 4) }
func BenchmarkGenMeshInline1Scale4(b *testing.B) { benchmarkGenMesh(b, "inline_1", 4) }

// The three stages every generated graph goes through (RMAT-16, 1 M edges
// before dedup), each reporting ns per arc of the graph it returns.

func rmat16() *graph.Graph { return gen.RMAT(16, 16, 0.57, 0.19, 0.19, 1) }

func reportPerArc(b *testing.B, g *graph.Graph) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumArcs()), "ns/arc")
}

func BenchmarkGenRMAT16(b *testing.B) {
	var g *graph.Graph
	for i := 0; i < b.N; i++ {
		g = rmat16()
	}
	reportPerArc(b, g)
}

// BenchmarkGraphBuildRMAT16 rebuilds the graph from its own arc list, so
// every edge arrives twice, once in each orientation.
func BenchmarkGraphBuildRMAT16(b *testing.B) {
	g := rmat16()
	tails := make([]int32, 0, g.NumArcs())
	for v := 0; v < g.NumVertices(); v++ {
		for range g.Adj(int32(v)) {
			tails = append(tails, int32(v))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := graph.NewBuilder(g.NumVertices())
		bld.AddEdges(len(tails), func(us, vs []int32) {
			copy(us, tails)
			copy(vs, g.AdjRaw())
		})
		if h := bld.Build(); h.NumArcs() != g.NumArcs() {
			b.Fatalf("rebuilt graph has %d arcs, want %d", h.NumArcs(), g.NumArcs())
		}
	}
	reportPerArc(b, g)
}

func BenchmarkGraphShuffledRMAT16(b *testing.B) {
	g := rmat16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Shuffled(2)
	}
	reportPerArc(b, g)
}

// --- Extension kernels ----------------------------------------------------

func BenchmarkKernelHybridBFS(b *testing.B) {
	g := benchGraph(b, "pwtk")
	src := int32(g.NumVertices() / 2)
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
	scratch := bfs.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.Hybrid(nil, g, src, team, opts, bfs.HybridConfig{})
		if err != nil || res.NumLevels == 0 {
			b.Fatal("no levels")
		}
	}
}

func BenchmarkKernelPageRank(b *testing.B) {
	g := benchGraph(b, "auto")
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
	cfg := irregular.PageRankOptions{MaxIter: 20, Tolerance: 1e-12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rank, _ := irregular.PageRank(g, team, opts, cfg); len(rank) == 0 {
			b.Fatal("no ranks")
		}
	}
}

func BenchmarkKernelComponentsLabelProp(b *testing.B) {
	g := benchGraph(b, "msdoor")
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 64}
	scratch := components.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.LabelPropagation(nil, g, team, opts)
		if err != nil || res.Count == 0 {
			b.Fatal("no components")
		}
	}
}

func BenchmarkKernelComponentsPointerJump(b *testing.B) {
	g := benchGraph(b, "msdoor")
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 64}
	scratch := components.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.PointerJumping(nil, g, team, opts)
		if err != nil || res.Count == 0 {
			b.Fatal("no components")
		}
	}
}

func BenchmarkReorderRCM(b *testing.B) {
	g := benchGraph(b, "hood")
	shuffled := g.Shuffled(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if perm := graph.RCMOrder(shuffled); len(perm) == 0 {
			b.Fatal("no permutation")
		}
	}
}

// --- Telemetry overhead guards -------------------------------------------
//
// These pairs demonstrate the acceptance criterion that telemetry is
// zero-cost when off: the Off variants run the exact default (nil counters /
// Nop recorder / nil timeline) paths, the On variants the instrumented ones.
// Compare with `go test -bench 'Telemetry.*' -count 5`.

func benchTeamLoop(b *testing.B, counters *telemetry.Counters) {
	g := benchGraph(b, "hood")
	team := sched.NewTeam(4)
	defer team.Close()
	team.SetCounters(counters)
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := coloring.NewScratch().ColorTeam(nil, g, team, opts); err != nil || res.NumColors == 0 {
			b.Fatal("no colors")
		}
	}
}

func BenchmarkTelemetryCountersOff(b *testing.B) {
	benchTeamLoop(b, nil)
}

func BenchmarkTelemetryCountersOn(b *testing.B) {
	benchTeamLoop(b, telemetry.NewCounters(4))
}

func benchRecordedBFS(b *testing.B, ctx context.Context) {
	g := benchGraph(b, "pwtk")
	src := int32(g.NumVertices() / 2)
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bfs.NewScratch().BlockTeam(ctx, g, src, team, opts, 32, true)
		if err != nil || res.NumLevels == 0 {
			b.Fatal("bad traversal")
		}
	}
}

func BenchmarkTelemetryRecorderOff(b *testing.B) {
	benchRecordedBFS(b, context.Background())
}

func BenchmarkTelemetryRecorderOn(b *testing.B) {
	rec := telemetry.NewMemRecorder()
	benchRecordedBFS(b, telemetry.WithRecorder(context.Background(), rec))
}

func benchSimObserved(b *testing.B, tl *telemetry.Timeline, st *mic.SimStats) {
	m := mic.KNF()
	g := benchGraph(b, "ldoor")
	tr := mic.ColoringTrace(m, g, mic.NaturalOrder, 121)
	cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tl != nil {
			tl.Reset()
		}
		if mic.SimulateObserved(m, cfg, 121, tr, tl, st) <= 0 {
			b.Fatal("bad time")
		}
	}
}

func BenchmarkTelemetrySimulateOff(b *testing.B) {
	benchSimObserved(b, nil, nil)
}

func BenchmarkTelemetrySimulateOn(b *testing.B) {
	benchSimObserved(b, telemetry.NewTimeline(0), &mic.SimStats{})
}
