package gen

import (
	"runtime"
	"testing"

	"micgraph/internal/graph"
	"micgraph/internal/xrand"
)

// TestBuildAllocs holds graph.Builder.Build to a constant number of
// allocations and a few more a worker: none a block, none a vertex. RMAT-16
// rebuilt from its own arcs, as BenchmarkGraphBuildRMAT16 does, is 64 blocks
// of 1024 vertices; msdoor@16 is the generator's own allocations around one
// Build with cliques. testing.AllocsPerRun measures at GOMAXPROCS 1, so the
// rebuild is counted once more under GOMAXPROCS 8, by the allocator's tally.
func TestBuildAllocs(t *testing.T) {
	g := RMAT(16, 16, .57, .19, .19, 1)
	tails := make([]int32, 0, g.NumArcs())
	for v := 0; v < g.NumVertices(); v++ {
		for range g.Adj(int32(v)) {
			tails = append(tails, int32(v))
		}
	}
	rebuild := func() {
		b := graph.NewBuilder(g.NumVertices())
		b.AddEdges(len(tails), func(us, vs []int32) {
			copy(us, tails)
			copy(vs, g.AdjRaw())
		})
		b.Build()
	}
	const ceiling = 20 // the rebuild's Builder and edge arrays included
	if got := testing.AllocsPerRun(3, rebuild); got > ceiling {
		t.Errorf("RMAT-16 rebuild: %.1f allocations, want at most %d", got, ceiling)
	}
	if got := testing.AllocsPerRun(3, func() { suiteAt(t, "msdoor", 16) }); got > 2*ceiling {
		t.Errorf("msdoor@16: %.1f allocations, want at most %d", got, 2*ceiling)
	}

	const procs, perWorker = 8, 6
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rebuild() // the goroutines' first start, which may allocate their g
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rebuild()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > ceiling+perWorker*procs {
		t.Errorf("RMAT-16 rebuild under GOMAXPROCS %d: %d allocations, want at most %d", procs, got, ceiling+perWorker*procs)
	}
}

// TestPermuteAllocs holds graph.Graph.Permute to a constant number of
// allocations and a few more a worker — three goroutines and their closures,
// and its radix buffer — none a block, none a vertex: shuffled RMAT-16
// relabelled once more is 64 blocks of 1024 vertices. The permutation is drawn
// outside the count; the count is taken by testing.AllocsPerRun, which
// measures at GOMAXPROCS 1, and once more under GOMAXPROCS 8 by the
// allocator's tally.
func TestPermuteAllocs(t *testing.T) {
	g := RMAT(16, 16, .57, .19, .19, 1).Shuffled(1)
	perm := xrand.New(2).Perm(g.NumVertices())
	permute := func() {
		if _, err := g.Permute(perm); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 16 // the new graph's arrays and the inverse permutation included
	if got := testing.AllocsPerRun(3, permute); got > ceiling {
		t.Errorf("shuffled RMAT-16 permuted: %.1f allocations, want at most %d", got, ceiling)
	}

	const procs, perWorker = 8, 7
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	permute() // the goroutines' first start, which may allocate their g
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	permute()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > ceiling+perWorker*procs {
		t.Errorf("shuffled RMAT-16 permuted under GOMAXPROCS %d: %d allocations, want at most %d", procs, got, ceiling+perWorker*procs)
	}
}
