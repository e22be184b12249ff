package bfs

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

func TestHybridMatchesSequential(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 8}
	graphs := map[string]*graph.Graph{
		"chain":    gen.Chain(100),
		"complete": gen.Complete(50),
		"grid":     gen.Grid2D(25, 25),
		"rmat":     gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3),
		"random":   randomGraph(5, 300, 1200),
	}
	for name, g := range graphs {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			src := int32(g.NumVertices() / 3)
			res := must(NewScratch().Hybrid(nil, g, src, team, opts, HybridConfig{}))
			if err := Validate(g, src, res.Levels); err != nil {
				t.Fatal(err)
			}
			// One directional pass per non-empty frontier (levels 0..max).
			if res.TopDownLevels+res.BottomUpLevels != res.NumLevels {
				t.Errorf("direction counts %d+%d don't cover %d levels",
					res.TopDownLevels, res.BottomUpLevels, res.NumLevels)
			}
		})
	}
}

func TestHybridUsesBottomUpOnWideFrontier(t *testing.T) {
	// A complete graph's level 1 is the whole graph: must go bottom-up.
	team := sched.NewTeam(4)
	defer team.Close()
	g := gen.Complete(200)
	res := must(NewScratch().Hybrid(nil, g, 0, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 16}, HybridConfig{}))
	if res.BottomUpLevels == 0 {
		t.Error("complete graph BFS never switched to bottom-up")
	}
}

func TestHybridStaysTopDownOnChain(t *testing.T) {
	// A chain's frontier is always one vertex: bottom-up would be absurd
	// and the heuristic must never pick it.
	team := sched.NewTeam(2)
	defer team.Close()
	g := gen.Chain(400)
	res := must(NewScratch().Hybrid(nil, g, 0, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 8}, HybridConfig{}))
	if res.BottomUpLevels != 0 {
		t.Errorf("chain BFS used bottom-up on %d levels", res.BottomUpLevels)
	}
}

// suiteMesh generates the suite stand-in name shrunk by scale.
func suiteMesh(t *testing.T, name string, scale int) *graph.Graph {
	t.Helper()
	g, err := gen.Mesh(gen.Scaled(mustCfg(t, name), scale))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHybridDirectionDecisions pins what the default switch decides on the
// two graph families. A mesh's frontier is a thin shell that grows by a few
// percent a level, so a bottom-up sweep would scan almost every unvisited
// arc without a hit: the meshes stay top-down but for at most one level, from
// each of the four quarter sources bench's workloads draw around. A
// scale-free graph goes bottom-up on its wide middle levels and must come
// back for the thin tail, where a whole-vertex sweep finds almost nothing.
func TestHybridDirectionDecisions(t *testing.T) {
	rmat := gen.RMAT(14, 16, 0.57, 0.19, 0.19, 1).Shuffled(2)
	hub := int32(0) // the largest hub is certainly in the giant component
	for v := int32(1); int(v) < rmat.NumVertices(); v++ {
		if rmat.Degree(v) > rmat.Degree(hub) {
			hub = v
		}
	}
	// A neighbour of the hub: the BFS starts thin, as from a typical vertex.
	rmatSource := rmat.Adj(hub)[0]

	type decision struct {
		name        string
		g           *graph.Graph
		source      int32
		minBottomUp int
		maxBottomUp int
	}
	pwtk4 := suiteMesh(t, "pwtk", 4)
	cases := []decision{
		{"mesh-pwtk@4", pwtk4, int32(pwtk4.NumVertices() / 2), 0, 0},
		{"rmat-14-shuffled", rmat, rmatSource, 1, 2}, // the two wide levels of five
	}
	for _, name := range []string{"hood", "pwtk"} {
		g := suiteMesh(t, name, 8)
		for q := 1; q < 8; q += 2 {
			src := int32(q * g.NumVertices() / 8)
			cases = append(cases, decision{fmt.Sprintf("mesh-%s@8-from-%d", name, src), g, src, 0, 1})
		}
	}
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 32}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hres HybridResult
			_, samples := recordedRun(t, tc.g, func(ctx context.Context) (Result, error) {
				var err error
				hres, err = NewScratch().Hybrid(ctx, tc.g, tc.source, team, opts, HybridConfig{})
				return hres.Result, err
			})
			if err := Validate(tc.g, tc.source, hres.Levels); err != nil {
				t.Fatal(err)
			}
			if hres.BottomUpLevels < tc.minBottomUp || hres.BottomUpLevels > tc.maxBottomUp {
				t.Errorf("%d bottom-up levels (of %d), want %d..%d",
					hres.BottomUpLevels, hres.NumLevels, tc.minBottomUp, tc.maxBottomUp)
			}
			if last := samples[len(samples)-1]; last.Phase != "level-td" {
				t.Errorf("final level ran as %s (frontier %d, %d arcs)", last.Phase, last.Items, last.Edges)
			}
		})
	}
}

// TestClaimLockedExactlyOnce hammers the locked claim — firstUnvisited's
// load, then the caller's CAS, the way every exactly-once body walks a
// neighbour list — on one shared level array from GOMAXPROCS goroutines that
// all try every vertex, each under its own level value: the load in front of
// the CAS must not let a vertex be won twice or not at all. The array is
// claimed in short segments with a spin barrier between them, so the
// claimers stay within a few vertices of each other (a check-then-store
// claim fails this test on every run). Run under -race.
func TestClaimLockedExactlyOnce(t *testing.T) {
	const segment, rounds = 256, 400
	claimers := max(runtime.GOMAXPROCS(0), 4)
	levels := make([]int32, segment*rounds)
	ids := make([]int32, len(levels))
	for i := range levels {
		levels[i] = Unvisited
		ids[i] = int32(i)
	}
	wins := make([]int32, len(levels))
	var arrived atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < claimers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				arrived.Add(1)
				for arrived.Load() < int64((r+1)*claimers) {
					runtime.Gosched()
				}
				nb := ids[r*segment : (r+1)*segment]
				for j := firstUnvisited(nb, levels); j < len(nb); j += 1 + firstUnvisited(nb[j+1:], levels) {
					if v := nb[j]; atomic.CompareAndSwapInt32(&levels[v], Unvisited, int32(c)) {
						atomic.AddInt32(&wins[v], 1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for v := range wins {
		if wins[v] != 1 {
			t.Fatalf("vertex %d won %d times", v, wins[v])
		}
		if levels[v] < 0 || int(levels[v]) >= claimers {
			t.Fatalf("vertex %d holds level %d, not a claimer's", v, levels[v])
		}
	}
}

// TestFirstUnvisited pins the leaf's contract on the corners the bodies walk
// it over: an empty list, no hit, a hit first and last, and the resumed scan
// that visits every unvisited end exactly once, in order.
func TestFirstUnvisited(t *testing.T) {
	levels := []int32{0, Unvisited, 3, Unvisited, Unvisited, 7}
	for _, tc := range []struct {
		nb   []int32
		want int
	}{
		{nil, 0}, {[]int32{0, 2, 5}, 3}, {[]int32{1, 0}, 0}, {[]int32{0, 2, 4}, 2}, {[]int32{5, 3, 1}, 1},
	} {
		if got := firstUnvisited(tc.nb, levels); got != tc.want {
			t.Errorf("firstUnvisited(%v) = %d, want %d", tc.nb, got, tc.want)
		}
	}
	nb := []int32{1, 0, 3, 2, 5, 4}
	var hits []int32
	for j := firstUnvisited(nb, levels); j < len(nb); j += 1 + firstUnvisited(nb[j+1:], levels) {
		hits = append(hits, nb[j])
	}
	if len(hits) != 3 || hits[0] != 1 || hits[1] != 3 || hits[2] != 4 {
		t.Errorf("resumed scan hit %v, want [1 3 4]", hits)
	}
}

func TestHybridProperty(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 700)
		g := randomGraph(seed, n, m)
		src := int32(int(seed % uint64(n)))
		res := must(NewScratch().Hybrid(nil, g, src, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 4}, HybridConfig{}))
		return Validate(g, src, res.Levels) == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHybridConfigDefaults(t *testing.T) {
	if b := (HybridConfig{}).beta(); b != 24 {
		t.Errorf("default beta = %d, want 24", b)
	}
	if b := (HybridConfig{Beta: 3}).beta(); b != 3 {
		t.Errorf("explicit beta 3 read as %d", b)
	}
}

// TestProductLess checks the switch's comparison where an int64 product
// would wrap: a frontier of a Graph500 scale-30 graph (2³⁰ vertices,
// 3.4·10¹⁰ arcs), whose arcs times the frontier sizes pass 2⁶³.
func TestProductLess(t *testing.T) {
	const maxI = math.MaxInt64
	for _, tc := range []struct {
		a, b, c, d int64
		want       bool
	}{
		{2, 3, 1, 7, true},
		{2, 3, 3, 2, false},
		{0, maxI, 1, 1, true},
		{maxI, 2, maxI, 3, true},
		{maxI, 3, maxI, 2, false},
		{maxI, maxI, maxI, maxI, false},
		{30_000_000_000, 400_000_000, 8_000_000_000, 1_000_000_000, false},
		{8_000_000_000, 1_000_000_000, 30_000_000_000, 400_000_000, true},
		{3_037_000_500, 3_037_000_500, 3_037_000_499, 3_037_000_501, false},
		{3_037_000_500, 3_037_000_500, 3_037_000_499, 3_037_000_499, false},
	} {
		if got := productLess(tc.a, tc.b, tc.c, tc.d); got != tc.want {
			t.Errorf("productLess(%d, %d, %d, %d) = %v, want %v", tc.a, tc.b, tc.c, tc.d, got, tc.want)
		}
	}
}
