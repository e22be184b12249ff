// Package micgraph reproduces "An Early Evaluation of the Scalability of
// Graph Algorithms on the Intel MIC Architecture" (Saule & Çatalyürek,
// IPDPS Workshops 2012) as a Go library.
//
// The package is a facade over the implementation packages:
//
//   - internal/graph: CSR graphs, I/O, permutation, traversal;
//   - internal/gen: deterministic synthetic graph generators, including the
//     seven Table I stand-ins;
//   - internal/sched: the three runtime substrates the paper compares
//     (OpenMP-style scheduled loops, Cilk-style work stealing, TBB-style
//     partitioned ranges) implemented over goroutines;
//   - internal/coloring: sequential greedy, iterative parallel speculative
//     coloring (3 runtimes), distance-2 coloring;
//   - internal/bfs: sequential BFS and the parallel layered variants
//     (block queue locked/relaxed × OpenMP/TBB, bag, TLS queues, hybrid);
//   - internal/irregular: the neighbor-averaging microbenchmark;
//   - internal/kernels: the one table of runnable kind×variant pairs;
//   - internal/perfmodel: the paper's §III-C analytical BFS model;
//   - internal/mic: the deterministic many-core SMT machine simulator that
//     regenerates the paper's speedup figures;
//   - internal/core: the experiment engine for every table and figure.
//
// This facade exposes the typical entry points; import the internal
// packages directly (within this module) for the full API surface.
package micgraph

import (
	"context"
	"fmt"

	"micgraph/internal/bfs"
	"micgraph/internal/centrality"
	"micgraph/internal/coloring"
	"micgraph/internal/core"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/irregular"
	"micgraph/internal/mic"
	"micgraph/internal/perfmodel"
	"micgraph/internal/sched"
)

// Re-exported core types. The aliases make the facade zero-cost: values
// returned here interoperate freely with the internal packages.
type (
	// Graph is an immutable undirected CSR graph.
	Graph = graph.Graph
	// Edge is an undirected edge for graph construction.
	Edge = graph.Edge
	// MeshConfig parameterises a Table I stand-in generator.
	MeshConfig = gen.MeshConfig
	// ColoringResult reports a coloring run.
	ColoringResult = coloring.Result
	// BFSResult reports a BFS run.
	BFSResult = bfs.Result
	// Machine is a simulated hardware description.
	Machine = mic.Machine
	// Experiment is one reproduced table or figure.
	Experiment = core.Experiment
	// Team is an OpenMP-style worker team.
	Team = sched.Team
	// Pool is a Cilk/TBB-style work-stealing pool.
	Pool = sched.Pool
)

// NewGraph builds a simple undirected graph from an edge list.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// SuiteNames returns the names of the paper's seven test graphs.
func SuiteNames() []string {
	cfgs := gen.Suite()
	names := make([]string, len(cfgs))
	for i, c := range cfgs {
		names[i] = c.Name
	}
	return names
}

// SuiteGraph generates the named Table I stand-in, shrunk by the linear
// factor scale (1 = the paper's size).
func SuiteGraph(name string, scale int) (*Graph, error) {
	cfg, err := gen.SuiteConfig(name)
	if err != nil {
		return nil, err
	}
	return gen.Mesh(gen.Scaled(cfg, scale))
}

// GreedyColoring runs the sequential First-Fit greedy algorithm.
func GreedyColoring(g *Graph) ColoringResult { return coloring.SeqGreedy(g) }

// ParallelColoring runs the iterative parallel speculative coloring on an
// OpenMP-style team with the paper's best configuration (dynamic, chunk
// 100) and validates the result.
func ParallelColoring(g *Graph, workers int) (ColoringResult, error) {
	team := sched.NewTeam(workers)
	defer team.Close()
	res, err := coloring.NewScratch().ColorTeam(context.Background(), g, team,
		sched.ForOptions{Policy: sched.Dynamic, Chunk: 100})
	if err != nil {
		return res, err
	}
	if err := coloring.Validate(g, res.Colors); err != nil {
		return res, fmt.Errorf("micgraph: parallel coloring produced an invalid result: %w", err)
	}
	return res, nil
}

// ValidateColoring checks that colors is a proper coloring of g.
func ValidateColoring(g *Graph, colors []int32) error { return coloring.Validate(g, colors) }

// BFS runs the sequential breadth-first search from source.
func BFS(g *Graph, source int32) BFSResult { return bfs.Sequential(g, source) }

// ParallelBFS runs the paper's best-performing parallel variant
// (block-accessed queue, relaxed insertion, dynamic scheduling) and
// validates the level assignment.
func ParallelBFS(g *Graph, source int32, workers int) (BFSResult, error) {
	team := sched.NewTeam(workers)
	defer team.Close()
	res, err := bfs.NewScratch().BlockTeam(context.Background(), g, source, team,
		sched.ForOptions{Policy: sched.Dynamic, Chunk: bfs.DefaultBlockSize},
		bfs.DefaultBlockSize, true)
	if err != nil {
		return res, err
	}
	if err := bfs.Validate(g, source, res.Levels); err != nil {
		return res, fmt.Errorf("micgraph: parallel BFS produced an invalid result: %w", err)
	}
	return res, nil
}

// IrregularKernel runs iter neighbor-averaging sweeps of Algorithm 5 over
// the state vector on an OpenMP-style team and returns the new state.
func IrregularKernel(g *Graph, state []float64, iter, workers int) []float64 {
	team := sched.NewTeam(workers)
	defer team.Close()
	out, err := irregular.TeamCtx(context.Background(), g, state, iter, team,
		sched.ForOptions{Policy: sched.Dynamic, Chunk: 100})
	if err != nil {
		panic(err) // only a panicking loop body can fail an uncancellable run
	}
	return out
}

// AchievableBFSSpeedup evaluates the paper's §III-C analytical model:
// the best speedup a layered BFS with the given level widths, thread count
// and block size can reach.
func AchievableBFSSpeedup(levelWidths []int64, threads, blockSize int) float64 {
	return perfmodel.Speedup(levelWidths, threads, blockSize)
}

// KNF returns the simulated Knights Ferry machine (31 cores × 4-way SMT).
func KNF() *Machine { return mic.KNF() }

// HostXeon returns the simulated dual-Xeon host (12 cores × 2-way HT).
func HostXeon() *Machine { return mic.HostXeon() }

// HybridBFS runs the direction-optimizing (top-down/bottom-up) BFS — the
// extension of the paper's layered algorithm for wide frontiers — and
// validates the level assignment.
func HybridBFS(g *Graph, source int32, workers int) (bfs.HybridResult, error) {
	team := sched.NewTeam(workers)
	defer team.Close()
	res, err := bfs.NewScratch().Hybrid(context.Background(), g, source, team,
		sched.ForOptions{Policy: sched.Dynamic, Chunk: bfs.DefaultBlockSize}, bfs.HybridConfig{})
	if err != nil {
		return res, err
	}
	if err := bfs.Validate(g, source, res.Levels); err != nil {
		return res, fmt.Errorf("micgraph: hybrid BFS produced an invalid result: %w", err)
	}
	return res, nil
}

// PageRank runs the damped power iteration (the algorithm the paper's
// irregular kernel abstracts) and returns the rank vector and iteration
// count.
func PageRank(g *Graph, workers int) ([]float64, int) {
	team := sched.NewTeam(workers)
	defer team.Close()
	return irregular.PageRank(g, team,
		sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}, irregular.PageRankOptions{})
}

// Betweenness estimates betweenness centrality from numSources evenly
// spaced BFS sources (Brandes on top of the parallel BFS).
func Betweenness(g *Graph, numSources, workers int) []float64 {
	team := sched.NewTeam(workers)
	defer team.Close()
	n := g.NumVertices()
	if numSources < 1 {
		numSources = 1
	}
	stride := n / numSources
	if stride < 1 {
		stride = 1
	}
	return centrality.Sampled(g, centrality.EverySource(n, stride), team,
		sched.ForOptions{Policy: sched.Dynamic, Chunk: bfs.DefaultBlockSize})
}

// RCMPermutation returns the Reverse Cuthill-McKee reordering of g; apply
// it with Graph.Permute to restore the index locality a shuffled graph
// lost (the Figure 2 axis).
func RCMPermutation(g *Graph) []int32 { return graph.RCMOrder(g) }

// RunExperiment reproduces one of the paper's tables or figures by id
// (table1, fig1a..fig1c, fig2, fig3a..fig3c, fig4a..fig4d) on a suite
// shrunk by scale (1 = paper sizes).
func RunExperiment(id string, scale int) (*Experiment, error) {
	suite, err := core.NewSuite(scale)
	if err != nil {
		return nil, err
	}
	return core.ByID(id, suite, mic.KNF(), mic.HostXeon())
}
