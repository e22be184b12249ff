package coloring_test

import (
	"context"
	"testing"

	"micgraph/internal/coloring"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/kerneltest"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// TestColorPublishVerifyWorstInterleavings runs the one-sweep round where it
// clashes most: dense and skewed graphs, eight workers, one vertex per claim,
// never inline. Whatever the interleaving, the coloring must come out proper
// and first-fit bounded, the last round must queue nothing, and the rounds
// the recorder saw must be the rounds the result reports.
func TestColorPublishVerifyWorstInterleavings(t *testing.T) {
	runs := 500
	if kerneltest.RaceEnabled {
		runs = 50 // tenfold slower, and CI repeats the test twenty times
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"K64", gen.Complete(64)},
		{"ring-of-cliques", gen.RingOfCliques(24, 12)},
		{"star", kerneltest.Star(399)},
		{"rmat-12-shuffled", gen.RMAT(12, 8, 0.57, 0.19, 0.19, 3).Shuffled(4)},
	}

	const workers = 8
	team := sched.NewTeam(workers)
	defer team.Close()
	pool := sched.NewPool(workers)
	defer pool.Close()
	s := coloring.NewScratch()
	runtimes := []struct {
		name string
		run  func(ctx context.Context, g *graph.Graph) (coloring.Result, error)
	}{
		{"team", func(ctx context.Context, g *graph.Graph) (coloring.Result, error) {
			return s.ColorTeam(ctx, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 1, SerialBelow: -1})
		}},
		{"cilk", func(ctx context.Context, g *graph.Graph) (coloring.Result, error) {
			return s.ColorCilk(ctx, g, pool, 1, coloring.CilkHolder)
		}},
		{"tbb", func(ctx context.Context, g *graph.Graph) (coloring.Result, error) {
			return s.ColorTBB(ctx, g, pool, sched.SimplePartitioner, 1)
		}},
	}

	rec := telemetry.NewMemRecorder()
	ctx := telemetry.WithRecorder(context.Background(), rec)
	for _, gr := range graphs {
		for _, rt := range runtimes {
			t.Run(gr.name+"/"+rt.name, func(t *testing.T) {
				for i := 0; i < runs; i++ {
					rec.Reset()
					res, err := rt.run(ctx, gr.g)
					if err != nil {
						t.Fatal(err)
					}
					kerneltest.CheckColoring(t, rt.name, gr.g, res)
					if len(res.Conflicts) != res.Rounds || res.Conflicts[res.Rounds-1] != 0 {
						t.Fatalf("run %d: %d rounds, conflicts %v", i, res.Rounds, res.Conflicts)
					}
					var claims, conflicts int64
					for _, smp := range rec.Samples() {
						claims += smp.Claims
					}
					for _, c := range res.Conflicts {
						conflicts += int64(c)
					}
					if rec.Len() != res.Rounds || claims != conflicts {
						t.Fatalf("run %d: %d samples claiming %d, %d rounds with %d conflicts",
							i, rec.Len(), claims, res.Rounds, conflicts)
					}
				}
			})
		}
	}
}
