package irregular

import (
	"math"
	"testing"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

func prOpts() sched.ForOptions { return sched.ForOptions{Policy: sched.Dynamic, Chunk: 16} }

func TestPageRankSumsToOne(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	for name, g := range map[string]*graph.Graph{
		"grid":     gen.Grid2D(12, 12),
		"complete": gen.Complete(20),
		"random":   randomGraph(3, 150, 600),
		"isolated": graph.NewBuilder(10).Build(), // all dangling
	} {
		rank, iters := PageRank(g, team, prOpts(), PageRankOptions{})
		sum := 0.0
		for _, r := range rank {
			sum += r
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: ranks sum to %v after %d iterations", name, sum, iters)
		}
		for v, r := range rank {
			if r <= 0 {
				t.Errorf("%s: vertex %d has non-positive rank %v", name, v, r)
			}
		}
	}
}

func TestPageRankUniformOnRegularGraphs(t *testing.T) {
	// On vertex-transitive graphs every vertex has the same rank.
	team := sched.NewTeam(2)
	defer team.Close()
	g := gen.Complete(16)
	rank, _ := PageRank(g, team, prOpts(), PageRankOptions{})
	want := 1.0 / 16
	for v, r := range rank {
		if math.Abs(r-want) > 1e-6 {
			t.Errorf("K16 vertex %d rank %v, want %v", v, r, want)
		}
	}
}

func TestPageRankStarCenterDominates(t *testing.T) {
	b := graph.NewBuilder(11)
	for i := int32(1); i <= 10; i++ {
		b.AddEdge(0, i)
	}
	g := b.Build()
	team := sched.NewTeam(3)
	defer team.Close()
	rank, _ := PageRank(g, team, prOpts(), PageRankOptions{})
	for v := 1; v <= 10; v++ {
		if rank[0] <= rank[v] {
			t.Fatalf("center rank %v not above leaf %v", rank[0], rank[v])
		}
	}
	// Leaves are symmetric.
	for v := 2; v <= 10; v++ {
		if math.Abs(rank[v]-rank[1]) > 1e-9 {
			t.Errorf("leaf ranks differ: %v vs %v", rank[v], rank[1])
		}
	}
}

func TestPageRankConverges(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	g := gen.RingOfCliques(20, 6)
	_, iters := PageRank(g, team, prOpts(), PageRankOptions{Tolerance: 1e-10, MaxIter: 500})
	if iters >= 500 {
		t.Errorf("did not converge within 500 iterations")
	}
	if iters < 3 {
		t.Errorf("converged suspiciously fast (%d iterations)", iters)
	}
}

func TestPageRankDeterministicAcrossWorkers(t *testing.T) {
	g := randomGraph(9, 200, 900)
	t1 := sched.NewTeam(1)
	defer t1.Close()
	t4 := sched.NewTeam(4)
	defer t4.Close()
	a, _ := PageRank(g, t1, prOpts(), PageRankOptions{MaxIter: 30, Tolerance: 1e-15})
	b, _ := PageRank(g, t4, prOpts(), PageRankOptions{MaxIter: 30, Tolerance: 1e-15})
	if d := MaxAbsDiff(a, b); d != 0 {
		t.Errorf("worker count changed the result by %v (must be bit-identical)", d)
	}
}

func TestPageRankOptionsDefaults(t *testing.T) {
	var o PageRankOptions
	if o.damping() != 0.85 || o.tolerance() != 1e-8 || o.maxIter() != 100 {
		t.Error("defaults wrong")
	}
	bad := PageRankOptions{Damping: 1.5}
	if bad.damping() != 0.85 {
		t.Error("out-of-range damping not defaulted")
	}
}

// TestPageRankRepanics pins PageRank's failure contract: a panic contained
// by the team (here the fault hook's, at the first chunk claim) comes back
// as a *sched.PanicError on the caller's goroutine, and the team still runs
// loops afterwards.
func TestPageRankRepanics(t *testing.T) {
	team := sched.NewTeam(2)
	defer team.Close()
	g := gen.Grid2D(30, 30)
	team.SetInject(func(string, int) { panic("injected") })
	func() {
		defer func() {
			if _, ok := recover().(*sched.PanicError); !ok {
				t.Fatal("PageRank did not re-panic with a *sched.PanicError")
			}
		}()
		PageRank(g, team, prOpts(), PageRankOptions{})
	}()
	team.SetInject(nil)
	if rank, _ := PageRank(g, team, prOpts(), PageRankOptions{}); len(rank) != g.NumVertices() {
		t.Fatalf("PageRank after a contained panic returned %d ranks", len(rank))
	}
}

func TestPageRankEmpty(t *testing.T) {
	team := sched.NewTeam(2)
	defer team.Close()
	rank, iters := PageRank(graph.NewBuilder(0).Build(), team, prOpts(), PageRankOptions{})
	if rank != nil || iters != 0 {
		t.Error("empty graph should return nil, 0")
	}
}
