package coloring

import (
	"testing"
	"testing/quick"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/xrand"
)

// must unwraps a Scratch run that is expected to succeed.
func must(res Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return res
}

func randomGraph(seed uint64, n, m int) *graph.Graph {
	r := xrand.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

func TestSeqGreedyPath(t *testing.T) {
	g := gen.Chain(10)
	res := SeqGreedy(g)
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 2 {
		t.Errorf("path colored with %d colors, want 2", res.NumColors)
	}
}

func TestSeqGreedyComplete(t *testing.T) {
	g := gen.Complete(9)
	res := SeqGreedy(g)
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 9 {
		t.Errorf("K9 colored with %d colors, want 9", res.NumColors)
	}
}

func TestSeqGreedyEmptyAndSingle(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	res := SeqGreedy(empty)
	if res.NumColors != 0 || len(res.Colors) != 0 {
		t.Errorf("empty graph: %+v", res)
	}
	one := graph.NewBuilder(1).Build()
	res = SeqGreedy(one)
	if res.NumColors != 1 {
		t.Errorf("isolated vertex colored with %d colors, want 1", res.NumColors)
	}
}

func TestSeqGreedyBound(t *testing.T) {
	// First Fit never exceeds Δ+1 colors, on any graph and any order.
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 900)
		g := randomGraph(seed, n, m)
		res := SeqGreedy(g)
		if Validate(g, res.Colors) != nil {
			return false
		}
		return res.NumColors <= g.MaxDegree()+1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSeqGreedyOrderPermutation colors a relabelled graph: natural order on
// it is a random visit order on the original.
func TestSeqGreedyOrderPermutation(t *testing.T) {
	g, err := randomGraph(3, 60, 300).Permute(xrand.New(9).Perm(60))
	if err != nil {
		t.Fatal(err)
	}
	res := SeqGreedy(g)
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors > g.MaxDegree()+1 {
		t.Errorf("permuted order used %d colors > Δ+1 = %d", res.NumColors, g.MaxDegree()+1)
	}
}

func TestValidateCatchesBadColoring(t *testing.T) {
	g := gen.Chain(3)
	if err := Validate(g, []int32{1, 1, 2}); err == nil {
		t.Error("monochromatic edge not detected")
	}
	if err := Validate(g, []int32{1, 0, 1}); err == nil {
		t.Error("uncolored vertex not detected")
	}
	if err := Validate(g, []int32{1, 2}); err == nil {
		t.Error("length mismatch not detected")
	}
}

func TestCountColors(t *testing.T) {
	if CountColors([]int32{1, 3, 2}) != 3 {
		t.Error("CountColors wrong")
	}
	if CountColors(nil) != 0 {
		t.Error("CountColors(nil) != 0")
	}
}

// ringOfCliques has known chromatic number s; every kernel should find
// close to s colors.
func TestParallelVariantsOnRingOfCliques(t *testing.T) {
	g := gen.RingOfCliques(40, 8)
	seq := SeqGreedy(g)
	if seq.NumColors != 8 {
		t.Fatalf("sequential colors = %d, want 8", seq.NumColors)
	}

	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()

	checks := []struct {
		name string
		run  func() Result
	}{
		{"team-static", func() Result {
			return must(NewScratch().ColorTeam(nil, g, team, sched.ForOptions{Policy: sched.Static, Chunk: 13}))
		}},
		{"team-dynamic", func() Result {
			return must(NewScratch().ColorTeam(nil, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 7}))
		}},
		{"team-guided", func() Result {
			return must(NewScratch().ColorTeam(nil, g, team, sched.ForOptions{Policy: sched.Guided, Chunk: 5}))
		}},
		{"cilk-holder", func() Result { return must(NewScratch().ColorCilk(nil, g, pool, 16, CilkHolder)) }},
		{"tbb-simple", func() Result { return must(NewScratch().ColorTBB(nil, g, pool, sched.SimplePartitioner, 16)) }},
		{"tbb-auto", func() Result { return must(NewScratch().ColorTBB(nil, g, pool, sched.AutoPartitioner, 16)) }},
		{"tbb-affinity", func() Result { return must(NewScratch().ColorTBB(nil, g, pool, sched.AffinityPartitioner, 16)) }},
	}
	for _, c := range checks {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := c.run()
			if err := Validate(g, res.Colors); err != nil {
				t.Fatal(err)
			}
			if res.NumColors < 8 || res.NumColors > 10 {
				t.Errorf("colors = %d, want 8..10 (quality within ~5%% of sequential, §V-B)", res.NumColors)
			}
			if res.NumColors != CountColors(res.Colors) {
				t.Errorf("reported NumColors %d != actual %d", res.NumColors, CountColors(res.Colors))
			}
			if res.Rounds < 1 {
				t.Error("no rounds recorded")
			}
			if len(res.Conflicts) != res.Rounds {
				t.Errorf("%d conflict entries for %d rounds", len(res.Conflicts), res.Rounds)
			}
			if last := res.Conflicts[len(res.Conflicts)-1]; last != 0 {
				t.Errorf("terminated with %d conflicts outstanding", last)
			}
		})
	}
}

func TestParallelColoringProperty(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%120) + 1
		m := int(mRaw % 600)
		g := randomGraph(seed, n, m)
		res := must(NewScratch().ColorTeam(nil, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 3}))
		return Validate(g, res.Colors) == nil && res.NumColors <= g.MaxDegree()+1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParallelColoringOnMesh(t *testing.T) {
	cfg := gen.Scaled(mustCfg(t, "hood"), 16)
	g, err := gen.Mesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := SeqGreedy(g)
	if err := Validate(g, seq.Colors); err != nil {
		t.Fatal(err)
	}
	// The clique-grid stand-in must color with ~CliqueSize colors (within
	// the 5% the paper reports for parallel-vs-sequential quality, plus the
	// hub slack).
	if seq.NumColors < cfg.CliqueSize || seq.NumColors > cfg.CliqueSize+3 {
		t.Errorf("sequential colors = %d, want ≈%d", seq.NumColors, cfg.CliqueSize)
	}

	pool := sched.NewPool(4)
	defer pool.Close()
	res := must(NewScratch().ColorCilk(nil, g, pool, 100, CilkHolder))
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if float64(res.NumColors) > 1.05*float64(seq.NumColors)+1 {
		t.Errorf("parallel colors %d vs sequential %d: degradation > 5%%", res.NumColors, seq.NumColors)
	}
}

func mustCfg(t *testing.T, name string) gen.MeshConfig {
	t.Helper()
	c, err := gen.SuiteConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSeqGreedyD2(t *testing.T) {
	// A star's leaves all share the center as a common neighbor: distance-2
	// coloring needs n colors on K_{1,n-1}... center + distinct leaf colors.
	b := graph.NewBuilder(6)
	for i := int32(1); i < 6; i++ {
		b.AddEdge(0, i)
	}
	star := b.Build()
	res := SeqGreedyD2(star)
	if err := ValidateD2(star, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 6 {
		t.Errorf("star d2 colors = %d, want 6", res.NumColors)
	}

	// Path: distance-2 chromatic number is 3.
	p := gen.Chain(10)
	res = SeqGreedyD2(p)
	if err := ValidateD2(p, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 3 {
		t.Errorf("path d2 colors = %d, want 3", res.NumColors)
	}
}

func TestValidateD2Catches(t *testing.T) {
	// Path 0-1-2: colors 1,2,1 is proper at distance 1 but not distance 2.
	g := gen.Chain(3)
	if err := ValidateD2(g, []int32{1, 2, 1}); err == nil {
		t.Error("distance-2 violation not detected")
	}
	if err := ValidateD2(g, []int32{1, 2, 3}); err != nil {
		t.Errorf("valid d2 coloring rejected: %v", err)
	}
}

func TestColorTeamD2(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	g := randomGraph(11, 80, 200)
	res, err := NewScratch().ColorTeamD2(nil, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateD2(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	seq := SeqGreedyD2(g)
	if res.NumColors > 2*seq.NumColors+1 {
		t.Errorf("parallel d2 colors %d vs sequential %d", res.NumColors, seq.NumColors)
	}
}

func TestColorTeamD2Property(t *testing.T) {
	team := sched.NewTeam(3)
	defer team.Close()
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%60) + 1
		m := int(mRaw % 200)
		g := randomGraph(seed, n, m)
		res, err := NewScratch().ColorTeamD2(nil, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 2})
		return err == nil && ValidateD2(g, res.Colors) == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSeqGreedyHood32(b *testing.B) {
	g, err := gen.Mesh(gen.Scaled(gen.Suite()[2], 8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SeqGreedy(g)
		if res.NumColors == 0 {
			b.Fatal("no colors")
		}
	}
}
