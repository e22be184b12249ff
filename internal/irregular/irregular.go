// Package irregular implements the paper's irregular-computation
// microbenchmark (Algorithm 5): a traversal of a computational dependency
// graph where each vertex's double-precision state is repeatedly averaged
// with its neighbors' states. The iteration count `iter` scales the
// computation-to-communication ratio — the knob Figure 3 sweeps (1, 3, 5,
// 10 iterations). The kernel "is a reasonable abstraction of a single
// iteration of algorithms such as Page Rank or Heat Equation solvers and
// has data dependencies similar to a sparse matrix vector multiplication".
//
// All parallel variants read the neighbor states of the *input* snapshot
// and write a separate output array (Jacobi-style), so results are
// deterministic and identical across runtimes and thread counts, matching
// how such kernels are written in practice.
package irregular

import (
	"context"
	"math"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// InitialState returns the canonical deterministic starting state used by
// the benchmarks: state[v] = 1 + (v mod 97) / 97.
func InitialState(n int) []float64 {
	s := make([]float64, n)
	for v := range s {
		s[v] = 1 + float64(v%97)/97
	}
	return s
}

// updateOne computes iter averaging sweeps of vertex v against the frozen
// input snapshot, exactly as Algorithm 5's inner loop. The neighbour sum is
// unrolled four wide and still adds in list order, one term at a time, so
// the result is the plain loop's to the last bit; with four loads under one
// loop test the rate no longer follows the boundary the linker gives the loop
// (EXPERIMENTS.md, ISSUE 24).
func updateOne(g *graph.Graph, in []float64, v int32, iter int) float64 {
	adj := g.Adj(v)
	x := in[v]
	inv := 1 / float64(len(adj)+1)
	for it := 0; it < iter; it++ {
		sum := x
		a := adj
		for ; len(a) >= 4; a = a[4:] {
			sum += in[a[0]]
			sum += in[a[1]]
			sum += in[a[2]]
			sum += in[a[3]]
		}
		for _, w := range a {
			sum += in[w]
		}
		x = sum * inv
	}
	return x
}

// Sequential runs the kernel once over every vertex and returns the output
// state. iter must be >= 1.
func Sequential(g *graph.Graph, in []float64, iter int) []float64 {
	out := make([]float64, len(in))
	for v := 0; v < g.NumVertices(); v++ {
		out[v] = updateOne(g, in, int32(v), iter)
	}
	return out
}

// TeamCtx runs the kernel on an OpenMP-style Team with cooperative
// cancellation at chunk-claim boundaries (ctx may be nil); on failure the
// partially written output is returned alongside the error.
func TeamCtx(ctx context.Context, g *graph.Graph, in []float64, iter int, team *sched.Team, opts sched.ForOptions) ([]float64, error) {
	var loop sched.Loop
	loop.OnTeam(team, opts)
	return run(ctx, g, in, iter, &loop)
}

// CilkCtx runs the kernel as a cilk_for on the work-stealing pool, with
// cooperative cancellation at task-split boundaries.
func CilkCtx(ctx context.Context, g *graph.Graph, in []float64, iter int, pool *sched.Pool, grain int) ([]float64, error) {
	var loop sched.Loop
	loop.OnCilk(pool, grain)
	return run(ctx, g, in, iter, &loop)
}

// TBBCtx runs the kernel as a TBB parallel_for over a blocked range, with
// cooperative cancellation at range-split boundaries.
func TBBCtx(ctx context.Context, g *graph.Graph, in []float64, iter int, pool *sched.Pool, part sched.Partitioner, grain int) ([]float64, error) {
	var loop sched.Loop
	loop.OnTBB(pool, part, grain)
	return run(ctx, g, in, iter, &loop)
}

// run is the kernel on whatever loop is bound to: one parallel sweep over
// the vertices, recorded as one telemetry phase — every vertex updated
// once, every arc read iter times.
func run(ctx context.Context, g *graph.Graph, in []float64, iter int, loop *sched.Loop) ([]float64, error) {
	out := make([]float64, len(in))
	rec := telemetry.FromContext(ctx)
	start := telemetry.Now(rec)
	err := loop.Run(ctx, g.NumVertices(), func(lo, hi, w int) {
		for v := lo; v < hi; v++ {
			out[v] = updateOne(g, in, int32(v), iter)
		}
	})
	if telemetry.Active(rec) {
		rec.Record(telemetry.PhaseSample{
			Kernel: "irregular", Phase: "update",
			Items: int64(g.NumVertices()), Edges: g.NumArcs() * int64(iter),
			Duration: telemetry.Since(rec, start),
		})
	}
	return out, err
}

// MaxAbsDiff returns the maximum absolute element difference of a and b
// (useful for convergence checks and cross-runtime validation).
func MaxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}
