package coloring_test

import (
	"context"
	"fmt"
	"testing"

	"micgraph/internal/coloring"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/kerneltest"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// The one-sweep round is tested where it clashes most: dense and skewed
// graphs, eight workers, one vertex per claim, never inline.
const hammerWorkers = 8

var hammerOpts = sched.ForOptions{Policy: sched.Dynamic, Chunk: 1, SerialBelow: -1}

func hammerGraphs() []kerneltest.Named {
	return []kerneltest.Named{
		{Name: "K64", G: gen.Complete(64)},
		{Name: "ring-of-cliques", G: gen.RingOfCliques(24, 12)},
		{Name: "star", G: kerneltest.Star(399)},
		{Name: "rmat-12-shuffled", G: gen.RMAT(12, 8, 0.57, 0.19, 0.19, 3).Shuffled(4)},
	}
}

// hammer colors g runs times (a tenth of that under the race detector,
// which is tenfold slower, and CI repeats these tests twenty times).
// Whatever the interleaving, the coloring must pass check, the last round
// must queue nothing, and the rounds the recorder saw must be the rounds the
// result reports.
func hammer(t *testing.T, runs int, g *graph.Graph, check func(testing.TB, string, *graph.Graph, coloring.Result),
	color func(ctx context.Context, g *graph.Graph) (coloring.Result, error)) {
	if kerneltest.RaceEnabled {
		runs /= 10
	}
	rec := telemetry.NewMemRecorder()
	ctx := telemetry.WithRecorder(context.Background(), rec)
	for i := 0; i < runs; i++ {
		rec.Reset()
		res, err := color(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		check(t, t.Name(), g, res)
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
}

// colorRun is one variant of the coloring, bound to its runtime.
type colorRun struct {
	name string
	run  func(ctx context.Context, g *graph.Graph) (coloring.Result, error)
}

// hammerRuntimes binds s to team and pool as the three distance-1 variants,
// chunk vertices to a Team claim and at most chunk to a Cilk or TBB leaf.
func hammerRuntimes(s *coloring.Scratch, team *sched.Team, pool *sched.Pool, chunk int) []colorRun {
	opts := hammerOpts
	opts.Chunk = chunk
	return []colorRun{
		{"team", func(ctx context.Context, g *graph.Graph) (coloring.Result, error) {
			return s.ColorTeam(ctx, g, team, opts)
		}},
		{"cilk", func(ctx context.Context, g *graph.Graph) (coloring.Result, error) {
			return s.ColorCilk(ctx, g, pool, chunk, coloring.CilkHolder)
		}},
		{"tbb", func(ctx context.Context, g *graph.Graph) (coloring.Result, error) {
			return s.ColorTBB(ctx, g, pool, sched.SimplePartitioner, chunk)
		}},
	}
}

func TestColorPublishVerifyWorstInterleavings(t *testing.T) {
	team := sched.NewTeam(hammerWorkers)
	defer team.Close()
	pool := sched.NewPool(hammerWorkers)
	defer pool.Close()
	s := coloring.NewScratch()
	for _, gr := range hammerGraphs() {
		for _, rt := range hammerRuntimes(s, team, pool, 1) {
			t.Run(gr.Name+"/"+rt.name, func(t *testing.T) { hammer(t, 500, gr.G, kerneltest.CheckColoring, rt.run) })
		}
	}
}

// TestColorD2PublishVerify is the same at distance 2. There a gather meets a
// vertex once per path, so on K_64 — the shape that walked the first fit off
// a forbidden-color array marked by vertex id — it sees more colors than the
// vertex has others in reach, and the bound has to hold all the same.
func TestColorD2PublishVerify(t *testing.T) {
	team := sched.NewTeam(hammerWorkers)
	defer team.Close()
	s := coloring.NewScratch()
	for _, gr := range hammerGraphs() {
		t.Run(gr.Name, func(t *testing.T) {
			hammer(t, 50, gr.G, kerneltest.CheckColoringD2, func(ctx context.Context, g *graph.Graph) (coloring.Result, error) {
				return s.ColorTeamD2(ctx, g, team, hammerOpts)
			})
		})
	}
}

// TestColorPublishVerifyChunked hammers round one's verify against a
// worker's run, which chunks of one vertex never reach: graphs in natural
// order, whose chunks have arcs inside them, at chunks and grains above 1 —
// a clique, cliques joined in a ring, and a banded mesh.
func TestColorPublishVerifyChunked(t *testing.T) {
	team := sched.NewTeam(hammerWorkers)
	defer team.Close()
	pool := sched.NewPool(hammerWorkers)
	defer pool.Close()
	s := coloring.NewScratch()
	pwtk, err := gen.SuiteConfig("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := gen.Mesh(gen.Scaled(pwtk, 16))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []kerneltest.Named{
		{Name: "K64", G: gen.Complete(64)},
		{Name: "ring-of-cliques", G: gen.RingOfCliques(24, 12)},
		{Name: "pwtk16", G: mesh},
	}
	for _, gr := range graphs {
		for _, chunk := range []int{2, 5, 13, 64} {
			for _, rt := range hammerRuntimes(s, team, pool, chunk) {
				t.Run(fmt.Sprintf("%s/%d/%s", gr.Name, chunk, rt.name), func(t *testing.T) {
					hammer(t, 200, gr.G, kerneltest.CheckColoring, rt.run)
				})
			}
		}
	}
}
