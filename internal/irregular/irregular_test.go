package irregular

import (
	"math"
	"testing"
	"testing/quick"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/xrand"
)

// must unwraps a kernel run that is expected to succeed.
func must(out []float64, err error) []float64 {
	if err != nil {
		panic(err)
	}
	return out
}

func randomGraph(seed uint64, n, m int) *graph.Graph {
	r := xrand.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

func TestSequentialIsolatedVertex(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	out := Sequential(g, []float64{3.5}, 4)
	if out[0] != 3.5 {
		t.Errorf("isolated vertex changed state: %v", out[0])
	}
}

// TestUpdateOneMatchesPlainLoop holds the unrolled neighbour sum to the loop
// it replaced, term by term in list order, on the centre of a star of every
// degree from 0 to 9 (no pass, a remainder only, two passes and a remainder)
// over a state whose sums round differently in any other order.
func TestUpdateOneMatchesPlainLoop(t *testing.T) {
	for deg := 0; deg <= 9; deg++ {
		b := graph.NewBuilder(deg + 1)
		in := []float64{1 / 3.0}
		for w := 1; w <= deg; w++ {
			b.AddEdge(0, int32(w))
			in = append(in, math.Pow(10, float64(w%5))/float64(2*w+1))
		}
		g := b.Build()
		for _, iter := range []int{1, 3} {
			want := in[0]
			for it := 0; it < iter; it++ {
				sum := want
				for _, w := range g.Adj(0) {
					sum += in[w]
				}
				want = sum * (1 / float64(deg+1))
			}
			if got := updateOne(g, in, 0, iter); got != want {
				t.Errorf("degree %d, iter %d: updateOne = %v, plain loop = %v", deg, iter, got, want)
			}
		}
	}
}

func TestSequentialPairConverges(t *testing.T) {
	// Two connected vertices averaging against a frozen snapshot both land
	// on the snapshot mean after one iteration.
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})
	out := Sequential(g, []float64{0, 2}, 1)
	if out[0] != 1 || out[1] != 1 {
		t.Errorf("out = %v, want [1 1]", out)
	}
}

func TestSequentialMoreIterationsSmooth(t *testing.T) {
	g := gen.Grid2D(10, 10)
	in := InitialState(100)
	spread := func(xs []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return hi - lo
	}
	one := Sequential(g, in, 1)
	ten := Sequential(g, in, 10)
	if spread(ten) > spread(one) {
		t.Errorf("10 iterations spread %v > 1 iteration spread %v; averaging must smooth", spread(ten), spread(one))
	}
}

func TestAllRuntimesMatchSequential(t *testing.T) {
	g := randomGraph(3, 300, 1500)
	in := InitialState(g.NumVertices())
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()

	for _, iter := range []int{1, 3, 5, 10} {
		want := Sequential(g, in, iter)
		runs := map[string][]float64{
			"team-dynamic": must(TeamCtx(nil, g, in, iter, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 8})),
			"team-static":  must(TeamCtx(nil, g, in, iter, team, sched.ForOptions{Policy: sched.Static, Chunk: 16})),
			"team-guided":  must(TeamCtx(nil, g, in, iter, team, sched.ForOptions{Policy: sched.Guided, Chunk: 4})),
			"cilk":         must(CilkCtx(nil, g, in, iter, pool, 32)),
			"tbb-simple":   must(TBBCtx(nil, g, in, iter, pool, sched.SimplePartitioner, 16)),
			"tbb-auto":     must(TBBCtx(nil, g, in, iter, pool, sched.AutoPartitioner, 16)),
			"tbb-affinity": must(TBBCtx(nil, g, in, iter, pool, sched.AffinityPartitioner, 16)),
		}
		for name, got := range runs {
			if d := MaxAbsDiff(want, got); d != 0 {
				t.Errorf("iter=%d %s diverges from sequential by %v (must be bit-identical)", iter, name, d)
			}
		}
	}
}

func TestKernelDeterministicProperty(t *testing.T) {
	team := sched.NewTeam(3)
	defer team.Close()
	property := func(seed uint64, nRaw, mRaw uint16, iterRaw uint8) bool {
		n := int(nRaw%200) + 1
		m := int(mRaw % 800)
		iter := int(iterRaw%10) + 1
		g := randomGraph(seed, n, m)
		in := InitialState(n)
		a := must(TeamCtx(nil, g, in, iter, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 3}))
		b := Sequential(g, in, iter)
		return MaxAbsDiff(a, b) == 0
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSweepConverges(t *testing.T) {
	// Repeated averaging on a connected graph converges towards consensus.
	g := gen.Grid2D(8, 8)
	team := sched.NewTeam(2)
	defer team.Close()
	out := InitialState(64)
	for sweep := 0; sweep < 200; sweep++ {
		out = must(TeamCtx(nil, g, out, 1, team, sched.ForOptions{Policy: sched.Static}))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range out {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if hi-lo > 0.05 {
		t.Errorf("after 200 sweeps spread = %v, want near consensus", hi-lo)
	}
}

func TestInitialState(t *testing.T) {
	s := InitialState(200)
	for v, x := range s {
		if x < 1 || x >= 2 {
			t.Fatalf("state[%d] = %v out of [1,2)", v, x)
		}
	}
	if s[0] == s[1] {
		t.Error("initial state is constant; kernel results would be trivial")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if d := MaxAbsDiff([]float64{1, 2, 3}, []float64{1, 2.5, 3}); d != 0.5 {
		t.Errorf("MaxAbsDiff = %v, want 0.5", d)
	}
	if d := MaxAbsDiff(nil, nil); d != 0 {
		t.Errorf("MaxAbsDiff(nil) = %v", d)
	}
}
