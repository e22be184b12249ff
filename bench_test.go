package micgraph

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (regenerating the experiment end-to-end on an 8x-shrunk suite,
// so `go test -bench .` finishes in minutes; use cmd/micbench -scale 1 for
// the paper-scale numbers recorded in EXPERIMENTS.md), plus microbenchmarks
// of the real parallel kernels and the simulator itself.
//
// Most benchmarks time an operation made by a constructor of the form
// func(testing.TB) func(): it does the set-up, registers any teardown with
// tb.Cleanup and returns the operation. TestBenchAllocCeilings counts the
// allocations of the same operations.

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

func getBenchSuite(tb testing.TB) *core.Suite {
	tb.Helper()
	benchSuiteOnce.Do(func() {
		s, err := core.NewSuite(benchScale)
		if err != nil {
			panic(err)
		}
		// Materialise the lazily shuffled copies now, so that no timed or
		// counted run of Fig2 pays for them.
		s.Shuffled()
		benchSuite = s
	})
	return benchSuite
}

// bench times the operation newOp makes, b.N times.
func bench(b *testing.B, newOp func(testing.TB) func()) {
	op := newOp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// experiment regenerates one experiment per call through core.ByID, as a
// caller does: each call makes its worker team.
func experiment(id string) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		s := getBenchSuite(tb)
		knf, host := mic.KNF(), mic.HostXeon()
		return func() {
			exp, err := core.ByID(id, s, knf, host)
			if err != nil {
				tb.Fatal(err)
			}
			if len(exp.Series) == 0 && len(exp.Rows) == 0 {
				tb.Fatal("empty experiment")
			}
		}
	}
}

// --- One benchmark per table/figure -------------------------------------

func BenchmarkTable1(b *testing.B)               { bench(b, experiment("table1")) }
func BenchmarkFig1aColoringOpenMP(b *testing.B)  { bench(b, experiment("fig1a")) }
func BenchmarkFig1bColoringCilk(b *testing.B)    { bench(b, experiment("fig1b")) }
func BenchmarkFig1cColoringTBB(b *testing.B)     { bench(b, experiment("fig1c")) }
func BenchmarkFig2ColoringShuffled(b *testing.B) { bench(b, experiment("fig2")) }
func BenchmarkFig3aIrregularOpenMP(b *testing.B) { bench(b, experiment("fig3a")) }
func BenchmarkFig3bIrregularCilk(b *testing.B)   { bench(b, experiment("fig3b")) }
func BenchmarkFig3cIrregularTBB(b *testing.B)    { bench(b, experiment("fig3c")) }
func BenchmarkFig4aBFSPwtk(b *testing.B)         { bench(b, experiment("fig4a")) }
func BenchmarkFig4bBFSInline1(b *testing.B)      { bench(b, experiment("fig4b")) }
func BenchmarkFig4cBFSAllMIC(b *testing.B)       { bench(b, experiment("fig4c")) }
func BenchmarkFig4dBFSHost(b *testing.B)         { bench(b, experiment("fig4d")) }
func BenchmarkAblationBlockSize(b *testing.B)    { bench(b, experiment("abl-blocksize")) }

// --- Real parallel kernels (goroutine execution, not simulation) ---------

func benchGraph(tb testing.TB, name string) *Graph {
	tb.Helper()
	g, err := SuiteGraph(name, benchScale)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// benchTeam and benchPool start four workers, stopped when tb ends.
func benchTeam(tb testing.TB) *sched.Team {
	team := sched.NewTeam(4)
	tb.Cleanup(team.Close)
	return team
}

func benchPool(tb testing.TB) *sched.Pool {
	pool := sched.NewPool(4)
	tb.Cleanup(pool.Close)
	return pool
}

func seqGreedyColoring(tb testing.TB) func() {
	g := benchGraph(tb, "hood")
	return func() {
		if res := coloring.SeqGreedy(g); res.NumColors == 0 {
			tb.Fatal("no colors")
		}
	}
}

func BenchmarkKernelSeqGreedyColoring(b *testing.B) { bench(b, seqGreedyColoring) }

func BenchmarkKernelColoringTeamDynamic(b *testing.B) {
	bench(b, func(tb testing.TB) func() {
		g, team := benchGraph(tb, "hood"), benchTeam(tb)
		opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
		scratch := coloring.NewScratch()
		return func() {
			if res, err := scratch.ColorTeam(nil, g, team, opts); err != nil || res.NumColors == 0 {
				tb.Fatal("no colors")
			}
		}
	})
}

func BenchmarkKernelColoringCilkHolder(b *testing.B) {
	bench(b, func(tb testing.TB) func() {
		g, pool := benchGraph(tb, "hood"), benchPool(tb)
		scratch := coloring.NewScratch()
		return func() {
			if res, err := scratch.ColorCilk(nil, g, pool, 100, coloring.CilkHolder); err != nil || res.NumColors == 0 {
				tb.Fatal("no colors")
			}
		}
	})
}

func BenchmarkKernelColoringTBBSimple(b *testing.B) {
	bench(b, func(tb testing.TB) func() {
		g, pool := benchGraph(tb, "hood"), benchPool(tb)
		scratch := coloring.NewScratch()
		return func() {
			if res, err := scratch.ColorTBB(nil, g, pool, sched.SimplePartitioner, 40); err != nil || res.NumColors == 0 {
				tb.Fatal("no colors")
			}
		}
	})
}

// bfsOp makes a traversal of pwtk from its middle vertex; run returns the
// number of levels.
func bfsOp(tb testing.TB, run func(g *Graph, src int32) (int, error)) func() {
	g := benchGraph(tb, "pwtk")
	src := int32(g.NumVertices() / 2)
	return func() {
		if levels, err := run(g, src); err != nil || levels == 0 {
			tb.Fatal("no levels")
		}
	}
}

func seqBFS(tb testing.TB) func() {
	return bfsOp(tb, func(g *Graph, src int32) (int, error) { return bfs.Sequential(g, src).NumLevels, nil })
}

func BenchmarkKernelBFSSequential(b *testing.B) { bench(b, seqBFS) }

func BenchmarkKernelBFSBlockRelaxed(b *testing.B) {
	bench(b, func(tb testing.TB) func() {
		team, scratch := benchTeam(tb), bfs.NewScratch()
		opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
		return bfsOp(tb, func(g *Graph, src int32) (int, error) {
			res, err := scratch.BlockTeam(nil, g, src, team, opts, 32, true)
			return res.NumLevels, err
		})
	})
}

func BenchmarkKernelBFSBag(b *testing.B) {
	bench(b, func(tb testing.TB) func() {
		pool, scratch := benchPool(tb), bfs.NewScratch()
		return bfsOp(tb, func(g *Graph, src int32) (int, error) {
			res, err := scratch.BagCilk(nil, g, src, pool, 0)
			return res.NumLevels, err
		})
	})
}

func BenchmarkKernelBFSTLS(b *testing.B) {
	bench(b, func(tb testing.TB) func() {
		team, scratch := benchTeam(tb), bfs.NewScratch()
		opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
		return bfsOp(tb, func(g *Graph, src int32) (int, error) {
			res, err := scratch.TLSTeam(nil, g, src, team, opts)
			return res.NumLevels, err
		})
	})
}

func BenchmarkKernelIrregularIter1(b *testing.B)  { bench(b, irregularOp(1)) }
func BenchmarkKernelIrregularIter10(b *testing.B) { bench(b, irregularOp(10)) }

func irregularOp(iter int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		g, team := benchGraph(tb, "msdoor"), benchTeam(tb)
		state := irregular.InitialState(g.NumVertices())
		opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
		return func() {
			if out, err := irregular.TeamCtx(nil, g, state, iter, team, opts); err != nil || out[0] < 0 {
				tb.Fatal("bad state")
			}
		}
	}
}

// --- Simulator and generator benchmarks ----------------------------------

func BenchmarkSimulateColoring121Threads(b *testing.B) { bench(b, simulateOp(nil, nil)) }

func traceBuildBFS(tb testing.TB) func() {
	m := mic.KNF()
	g := benchGraph(tb, "ldoor")
	src := int32(g.NumVertices() / 2)
	return func() {
		tr := mic.BFSTrace(m, g, src, mic.NaturalOrder, mic.BFSBlockRelaxed, 32)
		if len(tr.Phases) == 0 {
			tb.Fatal("empty trace")
		}
	}
}

func BenchmarkTraceBuildBFS(b *testing.B) { bench(b, traceBuildBFS) }

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
	bench(b, func(tb testing.TB) func() {
		team, scratch := benchTeam(tb), bfs.NewScratch()
		opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
		return bfsOp(tb, func(g *Graph, src int32) (int, error) {
			res, err := scratch.Hybrid(nil, g, src, team, opts, bfs.HybridConfig{})
			return res.NumLevels, err
		})
	})
}

func pageRank(tb testing.TB) func() {
	g, team := benchGraph(tb, "auto"), benchTeam(tb)
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
	cfg := irregular.PageRankOptions{MaxIter: 20, Tolerance: 1e-12}
	return func() {
		if rank, _ := irregular.PageRank(g, team, opts, cfg); len(rank) == 0 {
			tb.Fatal("no ranks")
		}
	}
}

func BenchmarkKernelPageRank(b *testing.B) { bench(b, pageRank) }

// componentsOp makes one labelling of msdoor by the given Scratch method.
func componentsOp(run func(*components.Scratch, context.Context, *Graph, *sched.Team, sched.ForOptions) (components.Result, error)) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		g, team := benchGraph(tb, "msdoor"), benchTeam(tb)
		opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 64}
		scratch := components.NewScratch()
		return func() {
			if res, err := run(scratch, nil, g, team, opts); err != nil || res.Count == 0 {
				tb.Fatal("no components")
			}
		}
	}
}

func BenchmarkKernelComponentsLabelProp(b *testing.B) {
	bench(b, componentsOp((*components.Scratch).LabelPropagation))
}

func BenchmarkKernelComponentsPointerJump(b *testing.B) {
	bench(b, componentsOp((*components.Scratch).PointerJumping))
}

func BenchmarkReorderRCM(b *testing.B) {
	bench(b, func(tb testing.TB) func() {
		shuffled := benchGraph(tb, "hood").Shuffled(1)
		return func() {
			if perm := graph.RCMOrder(shuffled); len(perm) == 0 {
				tb.Fatal("no permutation")
			}
		}
	})
}

// --- Telemetry overhead guards -------------------------------------------
//
// These pairs demonstrate the acceptance criterion that telemetry is
// zero-cost when off: the Off variants run the exact default (nil counters /
// Nop recorder / nil timeline) paths, the On variants the instrumented ones.
// Compare with `go test -bench 'Telemetry.*' -count 5`;
// TestBenchAllocCeilings holds each On variant to its Off twin's ceiling.

func teamLoopOp(counters *telemetry.Counters) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		g, team := benchGraph(tb, "hood"), benchTeam(tb)
		team.SetCounters(counters)
		opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
		return func() {
			if res, err := coloring.NewScratch().ColorTeam(nil, g, team, opts); err != nil || res.NumColors == 0 {
				tb.Fatal("no colors")
			}
		}
	}
}

func BenchmarkTelemetryCountersOff(b *testing.B) { bench(b, teamLoopOp(nil)) }
func BenchmarkTelemetryCountersOn(b *testing.B)  { bench(b, teamLoopOp(telemetry.NewCounters(4))) }

func recordedBFSOp(ctx context.Context) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		team := benchTeam(tb)
		opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
		return bfsOp(tb, func(g *Graph, src int32) (int, error) {
			res, err := bfs.NewScratch().BlockTeam(ctx, g, src, team, opts, 32, true)
			return res.NumLevels, err
		})
	}
}

func BenchmarkTelemetryRecorderOff(b *testing.B) { bench(b, recordedBFSOp(context.Background())) }
func BenchmarkTelemetryRecorderOn(b *testing.B) {
	bench(b, recordedBFSOp(telemetry.WithRecorder(context.Background(), telemetry.NewMemRecorder())))
}

// simulateOp simulates ldoor's 121-thread coloring trace under OpenMP
// dynamic/100; a non-nil tl and st observe it.
func simulateOp(tl *telemetry.Timeline, st *mic.SimStats) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		m := mic.KNF()
		tr := mic.ColoringTrace(m, benchGraph(tb, "ldoor"), mic.NaturalOrder, 121)
		cfg := mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 100}
		return func() {
			if tl != nil {
				tl.Reset()
			}
			if mic.SimulateObserved(m, cfg, 121, tr, tl, st) <= 0 {
				tb.Fatal("bad time")
			}
		}
	}
}

func BenchmarkTelemetrySimulateOff(b *testing.B) { bench(b, simulateOp(nil, nil)) }
func BenchmarkTelemetrySimulateOn(b *testing.B) {
	bench(b, simulateOp(telemetry.NewTimeline(0), &mic.SimStats{}))
}
