package bfs

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/xrand"
)

// must unwraps a Scratch run that is expected to succeed.
func must[R any](res R, err error) R {
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

func TestSequentialChain(t *testing.T) {
	g := gen.Chain(6)
	res := Sequential(g, 0)
	if res.NumLevels != 6 {
		t.Errorf("levels = %d, want 6", res.NumLevels)
	}
	for v, l := range res.Levels {
		if int(l) != v {
			t.Errorf("level[%d] = %d", v, l)
		}
	}
	if res.Processed != 6 || res.Duplicates != 0 {
		t.Errorf("processed=%d dup=%d", res.Processed, res.Duplicates)
	}
	for l, w := range res.Widths {
		if w != 1 {
			t.Errorf("width[%d] = %d, want 1", l, w)
		}
	}
}

func TestSequentialDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	g := b.Build()
	res := Sequential(g, 0)
	if res.NumLevels != 2 {
		t.Errorf("NumLevels = %d, want 2", res.NumLevels)
	}
	for v := 2; v < 5; v++ {
		if res.Levels[v] != Unvisited {
			t.Errorf("unreachable vertex %d has level %d", v, res.Levels[v])
		}
	}
}

func TestSequentialEmpty(t *testing.T) {
	res := Sequential(graph.NewBuilder(0).Build(), 0)
	if res.NumLevels != 0 || len(res.Levels) != 0 {
		t.Errorf("empty graph: %+v", res)
	}
}

func TestValidateDetectsWrongLevels(t *testing.T) {
	g := gen.Chain(4)
	bad := []int32{0, 1, 1, 2}
	if err := Validate(g, 0, bad); err == nil {
		t.Error("wrong level not detected")
	}
	if err := Validate(g, 0, []int32{0, 1}); err == nil {
		t.Error("length mismatch not detected")
	}
}

// allVariants runs every parallel BFS variant on (g, source) and validates
// each against the sequential reference.
func allVariants(t *testing.T, g *graph.Graph, source int32, team *sched.Team, pool *sched.Pool) {
	t.Helper()
	ref := Sequential(g, source)
	variants := []struct {
		name string
		run  func() Result
	}{
		{"OpenMP-Block", func() Result {
			return must(NewScratch().BlockTeam(nil, g, source, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 4}, 8, false))
		}},
		{"OpenMP-Block-relaxed", func() Result {
			return must(NewScratch().BlockTeam(nil, g, source, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 4}, 8, true))
		}},
		{"OpenMP-Block-static", func() Result {
			return must(NewScratch().BlockTeam(nil, g, source, team, sched.ForOptions{Policy: sched.Static}, 8, false))
		}},
		{"TBB-Block", func() Result {
			return must(NewScratch().BlockTBB(nil, g, source, pool, sched.SimplePartitioner, 8, 8, false))
		}},
		{"TBB-Block-relaxed", func() Result {
			return must(NewScratch().BlockTBB(nil, g, source, pool, sched.SimplePartitioner, 8, 8, true))
		}},
		{"CilkPlus-Bag-relaxed", func() Result { return must(NewScratch().BagCilk(nil, g, source, pool, 16)) }},
		{"OpenMP-TLS", func() Result {
			return must(NewScratch().TLSTeam(nil, g, source, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 4}))
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			res := v.run()
			if res.NumLevels != ref.NumLevels {
				t.Errorf("NumLevels = %d, want %d", res.NumLevels, ref.NumLevels)
			}
			for u := range ref.Levels {
				if res.Levels[u] != ref.Levels[u] {
					t.Fatalf("vertex %d: level %d, want %d", u, res.Levels[u], ref.Levels[u])
				}
			}
			if res.Processed < ref.Processed {
				t.Errorf("processed %d < reachable %d", res.Processed, ref.Processed)
			}
			if res.Duplicates < 0 {
				t.Errorf("negative duplicates %d", res.Duplicates)
			}
			for l := range ref.Widths {
				if res.Widths[l] != ref.Widths[l] {
					t.Errorf("width[%d] = %d, want %d", l, res.Widths[l], ref.Widths[l])
				}
			}
		})
	}
}

func TestParallelVariantsSmallGraphs(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()

	t.Run("chain", func(t *testing.T) { allVariants(t, gen.Chain(50), 0, team, pool) })
	t.Run("complete", func(t *testing.T) { allVariants(t, gen.Complete(40), 3, team, pool) })
	t.Run("grid", func(t *testing.T) { allVariants(t, gen.Grid2D(17, 23), 5, team, pool) })
	t.Run("ring-of-cliques", func(t *testing.T) { allVariants(t, gen.RingOfCliques(20, 6), 0, team, pool) })
	t.Run("random", func(t *testing.T) { allVariants(t, randomGraph(77, 200, 700), 10, team, pool) })
	t.Run("single-vertex", func(t *testing.T) { allVariants(t, graph.NewBuilder(1).Build(), 0, team, pool) })
}

func TestParallelVariantsMesh(t *testing.T) {
	cfg := gen.Scaled(mustCfg(t, "pwtk"), 16)
	g, err := gen.Mesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(8)
	defer team.Close()
	pool := sched.NewPool(8)
	defer pool.Close()
	allVariants(t, g, int32(g.NumVertices()/2), team, pool)
}

func mustCfg(t *testing.T, name string) gen.MeshConfig {
	t.Helper()
	c, err := gen.SuiteConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBlockBFSProperty(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	property := func(seed uint64, nRaw, mRaw uint16, relaxed bool) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 600)
		g := randomGraph(seed, n, m)
		src := int32(int(seed % uint64(n)))
		res := must(NewScratch().BlockTeam(nil, g, src, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 3}, 4, relaxed))
		return Validate(g, src, res.Levels) == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBagBFSProperty(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%120) + 1
		m := int(mRaw % 500)
		g := randomGraph(seed, n, m)
		src := int32(int(seed % uint64(n)))
		res := must(NewScratch().BagCilk(nil, g, src, pool, 8))
		return Validate(g, src, res.Levels) == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLockedVariantsNeverDuplicate(t *testing.T) {
	team := sched.NewTeam(6)
	defer team.Close()
	g := randomGraph(5, 300, 2000)
	res := must(NewScratch().BlockTeam(nil, g, 0, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 2}, 4, false))
	if res.Duplicates != 0 {
		t.Errorf("locked block BFS processed %d duplicates", res.Duplicates)
	}
	tls := must(NewScratch().TLSTeam(nil, g, 0, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 2}))
	var reached int64
	for _, w := range tls.Widths {
		reached += w
	}
	if tls.Processed != reached {
		t.Errorf("TLS BFS processed %d, reached %d: duplicates in locked variant", tls.Processed, reached)
	}
}

// TestBlockDenseLevels runs the block-queue variants on graphs with a level
// that holds at least an eighth of the vertices (a shuffled RMAT, a star)
// and on graphs without one (a chain, a grid). Levels must match Sequential,
// the locked variants must expand each reached vertex exactly once, and the
// dense order must be taken on the first two and never on the others,
// whatever the worker count and block size.
func TestBlockDenseLevels(t *testing.T) {
	rmat := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 3).Shuffled(5)
	var hub int32
	for v := range int32(rmat.NumVertices()) {
		if rmat.Degree(v) > rmat.Degree(hub) {
			hub = v
		}
	}
	b := graph.NewBuilder(300)
	for v := int32(1); v < 300; v++ {
		b.AddEdge(0, v)
	}
	inputs := []struct {
		name  string
		g     *graph.Graph
		src   int32
		dense bool
	}{
		{"rmat-11-shuffled", rmat, hub, true},
		{"star-300", b.Build(), 7, true},
		{"chain-257", gen.Chain(257), 0, false},
		{"grid-16x16", gen.Grid2D(16, 16), 0, false},
	}
	type blockRun func(ctx context.Context, s *Scratch, g *graph.Graph, src int32, bs int) (Result, error)
	for _, w := range []int{1, 2, 4} {
		team := sched.NewTeam(w)
		defer team.Close()
		pool := sched.NewPool(w)
		defer pool.Close()
		opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 4}
		tbb := func(part sched.Partitioner) blockRun {
			return func(ctx context.Context, s *Scratch, g *graph.Graph, src int32, bs int) (Result, error) {
				return s.BlockTBB(ctx, g, src, pool, part, 8, bs, false)
			}
		}
		variants := []struct {
			name   string
			locked bool
			run    blockRun
		}{
			{"omp-block", true, func(ctx context.Context, s *Scratch, g *graph.Graph, src int32, bs int) (Result, error) {
				return s.BlockTeam(ctx, g, src, team, opts, bs, false)
			}},
			{"omp-block-relaxed", false, func(ctx context.Context, s *Scratch, g *graph.Graph, src int32, bs int) (Result, error) {
				return s.BlockTeam(ctx, g, src, team, opts, bs, true)
			}},
			{"tbb-block-simple", true, tbb(sched.SimplePartitioner)},
			{"tbb-block-auto", true, tbb(sched.AutoPartitioner)},
			{"tbb-block-affinity", true, tbb(sched.AffinityPartitioner)},
		}
		for _, v := range variants {
			s := NewScratch()
			for _, in := range inputs {
				ref := Sequential(in.g, in.src)
				for _, bs := range []int{1, DefaultBlockSize} {
					res, samples := recordedRun(t, in.g, func(ctx context.Context) (Result, error) {
						return v.run(ctx, s, in.g, in.src, bs)
					})
					where := fmt.Sprintf("%s/%s/W=%d/block=%d", in.name, v.name, w, bs)
					for u, l := range ref.Levels {
						if res.Levels[u] != l {
							t.Fatalf("%s: vertex %d at level %d, want %d", where, u, res.Levels[u], l)
						}
					}
					if v.locked && (res.Duplicates != 0 || res.Processed != ref.Processed) {
						t.Errorf("%s: processed %d with %d duplicates, want %d and 0",
							where, res.Processed, res.Duplicates, ref.Processed)
					}
					dense := 0
					for _, smp := range samples {
						if smp.Phase == "level-dense" {
							dense++
						}
					}
					if (dense > 0) != in.dense {
						t.Errorf("%s: %d dense levels, want some: %v", where, dense, in.dense)
					}
				}
			}
		}
	}
}
