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
// Run is the one way into the kernels: any entry of the table, on the
// daemon's parameters, validated against the kind's sequential oracle.
package micgraph

import (
	"context"
	"fmt"

	"micgraph/internal/core"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/graphio"
	"micgraph/internal/kernels"
	"micgraph/internal/mic"
	"micgraph/internal/perfmodel"
)

// Re-exported core types. The aliases make the facade zero-cost: values
// returned here interoperate freely with the internal packages.
type (
	// Graph is an immutable undirected CSR graph.
	Graph = graph.Graph
	// Edge is an undirected edge for graph construction.
	Edge = graph.Edge
	// Outcome is a kernel run's result; only the field of its kind is set.
	Outcome = kernels.Outcome
	// Experiment is one reproduced table or figure.
	Experiment = core.Experiment
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
	return graphio.Load("", name, scale, nil)
}

// Run runs one entry of the kernels table on g with the given number of
// workers and validates the answer against the kind's sequential oracle.
// The kind is "bfs", "coloring", "components" or "irregular"; an empty
// variant is the kind's default, and "seq" is its sequential twin. The
// parameters are the table's defaults, with BFS from |V|/2 as in the paper.
// Each call starts and closes its own runtime, so the outcome is the
// caller's to keep.
func Run(kind, variant string, g *Graph, workers int) (Outcome, error) {
	if variant == "" {
		variant = kernels.Default(kind)
	}
	e, ok := kernels.Lookup(kind, variant)
	if !ok {
		return Outcome{}, fmt.Errorf("micgraph: no %s variant %q in the kernels table", kind, variant)
	}
	if workers < 1 {
		return Outcome{}, fmt.Errorf("micgraph: %d workers, need at least 1", workers)
	}
	p := kernels.Defaults()
	p.Source = kernels.Source(g, -1)
	rt := kernels.NewRuntime(workers)
	defer rt.Close()
	out, err := e.Run(context.Background(), rt, g, p)
	if err != nil {
		return out, err
	}
	if err := e.Validate(context.Background(), rt, g, p, out); err != nil {
		return out, fmt.Errorf("micgraph: %s/%s produced an invalid result: %w", kind, variant, err)
	}
	return out, nil
}

// AchievableBFSSpeedup evaluates the paper's §III-C analytical model:
// the best speedup a layered BFS with the given level widths, thread count
// and block size can reach.
func AchievableBFSSpeedup(levelWidths []int64, threads, blockSize int) float64 {
	return perfmodel.Speedup(levelWidths, threads, blockSize)
}

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
