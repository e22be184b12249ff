// Unstructured-mesh heat solver — the paper's §III-B setting: "in
// simulations that use unstructured mesh computations, dependencies on
// neighboring mesh elements make the structure of computations irregular...
// visiting neighbor elements are required and such visits involve some
// additional floating-point computations."
//
// We treat one of the FEM stand-in graphs as the mesh, pin a hot boundary
// (the first clique) and a cold boundary (the last), and run Jacobi
// relaxation sweeps with the irregular-computation kernel on all three
// runtimes, checking they produce bit-identical states and reporting the
// convergence of the residual.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"micgraph"
	"micgraph/internal/irregular"
	"micgraph/internal/sched"
)

func main() {
	mesh, err := micgraph.SuiteGraph("msdoor", 16)
	if err != nil {
		log.Fatal(err)
	}
	n := mesh.NumVertices()
	fmt.Printf("mesh: %s\n", mesh)

	// Initial temperature field: hot on the first 64 nodes, cold elsewhere.
	state := make([]float64, n)
	hot := 64
	for v := 0; v < hot; v++ {
		state[v] = 100
	}

	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 100}
	ctx := context.Background()
	must := func(out []float64, err error) []float64 {
		if err != nil {
			log.Fatal(err)
		}
		return out
	}

	residual := func(a, b []float64) float64 {
		sum := 0.0
		for i := range a {
			d := a[i] - b[i]
			sum += d * d
		}
		return math.Sqrt(sum / float64(len(a)))
	}

	prev := state
	sweeps := 0
	for ; sweeps < 500; sweeps++ {
		next := must(irregular.TeamCtx(ctx, mesh, prev, 1, team, opts))
		// Dirichlet boundary: re-pin the hot nodes each sweep.
		for v := 0; v < hot; v++ {
			next[v] = 100
		}
		r := residual(next, prev)
		if sweeps%100 == 0 {
			fmt.Printf("sweep %3d: residual %.6f  mean %.4f\n", sweeps, r, mean(next))
		}
		prev = next
		if r < 1e-4 {
			break
		}
	}
	fmt.Printf("converged (or stopped) after %d sweeps; mean temperature %.4f\n", sweeps, mean(prev))

	// Cross-runtime determinism: the three runtimes must agree exactly —
	// the property that makes the paper's speedup comparison meaningful.
	in := prev
	a := must(irregular.TeamCtx(ctx, mesh, in, 3, team, opts))
	b := must(irregular.CilkCtx(ctx, mesh, in, 3, pool, 100))
	c := must(irregular.TBBCtx(ctx, mesh, in, 3, pool, sched.SimplePartitioner, 40))
	if d := irregular.MaxAbsDiff(a, b); d != 0 {
		log.Fatalf("Cilk diverges from OpenMP by %v", d)
	}
	if d := irregular.MaxAbsDiff(a, c); d != 0 {
		log.Fatalf("TBB diverges from OpenMP by %v", d)
	}
	fmt.Println("OpenMP, Cilk and TBB sweeps are bit-identical ✓")
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
