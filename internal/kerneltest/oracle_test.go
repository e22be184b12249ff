package kerneltest

import (
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/sched"
)

// The oracle suites run every variant on every corpus graph from every
// source, with a small worker count so that single-CPU runs still
// interleave (the -race job shakes the claim protocols).

func TestBFSMatchesOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 16}

	// hybrid runs the direction-optimizing BFS under cfg and checks that the
	// switch did what the row's name says: with bottomUp > 0 every source
	// that has a neighbour must take a bottom-up level, with bottomUp < 0 no
	// source may take one.
	hybrid := func(cfg bfs.HybridConfig, bottomUp int) func(nm Named, s int32) bfs.Result {
		return func(nm Named, s int32) bfs.Result {
			res := bfs.HybridTeam(nm.G, s, team, opts, cfg)
			if got := res.BottomUpLevels; bottomUp > 0 && got == 0 && nm.G.Degree(s) > 0 || bottomUp < 0 && got != 0 {
				t.Errorf("%s from %d: alpha=%d beta=%d took %d bottom-up levels of %d",
					nm.Name, s, cfg.Alpha, cfg.Beta, got, res.NumLevels)
			}
			return res.Result
		}
	}
	variants := []struct {
		name   string
		locked bool // claims are exactly-once: no vertex may enter a frontier twice
		run    func(nm Named, source int32) bfs.Result
	}{
		{"omp-block", true, func(nm Named, s int32) bfs.Result {
			return bfs.BlockTeam(nm.G, s, team, opts, 8, false)
		}},
		{"omp-block-relaxed", false, func(nm Named, s int32) bfs.Result {
			return bfs.BlockTeam(nm.G, s, team, opts, 8, true)
		}},
		{"tbb-block", true, func(nm Named, s int32) bfs.Result {
			return bfs.BlockTBB(nm.G, s, pool, sched.AutoPartitioner, 8, 8, false)
		}},
		{"tbb-block-relaxed", false, func(nm Named, s int32) bfs.Result {
			return bfs.BlockTBB(nm.G, s, pool, sched.SimplePartitioner, 8, 8, true)
		}},
		{"tls", true, func(nm Named, s int32) bfs.Result {
			return bfs.TLSTeam(nm.G, s, team, opts)
		}},
		{"bag", false, func(nm Named, s int32) bfs.Result {
			return bfs.BagCilk(nm.G, s, pool, 16)
		}},
		{"hybrid", true, hybrid(bfs.HybridConfig{}, 0)},
		// Huge thresholds make every frontier count as wide, so the
		// bottom-up step runs on every level even of the sparse corpus
		// graphs; 1/1 is the other extreme and never leaves top-down.
		{"hybrid-eager", true, hybrid(bfs.HybridConfig{Alpha: 1 << 20, Beta: 1 << 20}, +1)},
		{"hybrid-lazy", true, hybrid(bfs.HybridConfig{Alpha: 1, Beta: 1}, -1)},
	}

	for _, nm := range Corpus() {
		for _, v := range variants {
			for _, src := range Sources(nm.G) {
				got := v.run(nm, src)
				CheckBFS(t, nm.Name+"/"+v.name, nm.G, src, got)
				if !v.locked {
					continue
				}
				// TLS and hybrid report Duplicates 0 by construction; what a
				// double claim would inflate there is Processed, which must
				// equal the vertices reached (CheckBFS pinned the widths).
				var reached int64
				for _, w := range got.Widths {
					reached += w
				}
				if got.Duplicates != 0 || got.Processed != reached {
					t.Errorf("%s/%s from %d: %d duplicates, processed %d, reached %d",
						nm.Name, v.name, src, got.Duplicates, got.Processed, reached)
				}
			}
		}
	}
}

// TestBFSScratchReuseMatchesOracle replays several graphs through one
// resident Scratch per variant: a recycled scratch must produce the same
// levels as a fresh one (the serving path runs this way).
func TestBFSScratchReuseMatchesOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()
	opts := sched.ForOptions{Policy: sched.Guided, Chunk: 8}

	block, tls, bag, hyb := bfs.NewScratch(), bfs.NewScratch(), bfs.NewScratch(), bfs.NewScratch()
	for _, nm := range Corpus() {
		for _, src := range Sources(nm.G) {
			if r, err := block.BlockTeam(nil, nm.G, src, team, opts, 8, true); err != nil {
				t.Fatal(err)
			} else {
				CheckBFS(t, nm.Name+"/scratch-block", nm.G, src, r)
			}
			if r, err := tls.TLSTeam(nil, nm.G, src, team, opts); err != nil {
				t.Fatal(err)
			} else {
				CheckBFS(t, nm.Name+"/scratch-tls", nm.G, src, r)
			}
			if r, err := bag.BagCilk(nil, nm.G, src, pool, 16); err != nil {
				t.Fatal(err)
			} else {
				CheckBFS(t, nm.Name+"/scratch-bag", nm.G, src, r)
			}
			if r, err := hyb.Hybrid(nil, nm.G, src, team, opts, bfs.HybridConfig{}); err != nil {
				t.Fatal(err)
			} else {
				CheckBFS(t, nm.Name+"/scratch-hybrid", nm.G, src, r.Result)
			}
		}
	}
}

func TestColoringMatchesOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()
	opts := sched.ForOptions{Policy: sched.Static, Chunk: 16}

	scratch := coloring.NewScratch()
	for _, nm := range Corpus() {
		CheckColoring(t, nm.Name+"/seq", nm.G, coloring.SeqGreedy(nm.G))
		CheckColoring(t, nm.Name+"/openmp", nm.G, coloring.ColorTeam(nm.G, team, opts))
		CheckColoring(t, nm.Name+"/cilk-wid", nm.G, coloring.ColorCilk(nm.G, pool, 32, coloring.CilkWorkerID))
		CheckColoring(t, nm.Name+"/cilk-holder", nm.G, coloring.ColorCilk(nm.G, pool, 32, coloring.CilkHolder))
		CheckColoring(t, nm.Name+"/tbb", nm.G, coloring.ColorTBB(nm.G, pool, sched.AutoPartitioner, 32))
		// The same recycled Scratch must stay proper across graphs.
		if r, err := scratch.ColorTeam(nil, nm.G, team, opts); err != nil {
			t.Fatal(err)
		} else {
			CheckColoring(t, nm.Name+"/scratch-reuse", nm.G, r)
		}
	}
}

func TestComponentsMatchOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 16}

	scratch := components.NewScratch()
	for _, nm := range Corpus() {
		CheckComponents(t, nm.Name+"/labelprop", nm.G, components.LabelPropagation(nm.G, team, opts))
		CheckComponents(t, nm.Name+"/pointerjump", nm.G, components.PointerJumping(nm.G, team, opts))
		if r, err := scratch.LabelPropagation(nil, nm.G, team, opts); err != nil {
			t.Fatal(err)
		} else {
			CheckComponents(t, nm.Name+"/scratch-labelprop", nm.G, r)
		}
		if r, err := scratch.PointerJumping(nil, nm.G, team, opts); err != nil {
			t.Fatal(err)
		} else {
			CheckComponents(t, nm.Name+"/scratch-pointerjump", nm.G, r)
		}
	}
}

// TestCorpusShape pins the corpus floor the satellite requires: at least
// 20 graphs, including stars, chains, disconnected and zero-degree shapes.
func TestCorpusShape(t *testing.T) {
	c := Corpus()
	if len(c) < 20 {
		t.Fatalf("corpus has %d graphs, want >= 20", len(c))
	}
	seen := map[string]bool{}
	for _, nm := range c {
		seen[nm.Name] = true
	}
	for _, want := range []string{"star-63", "chain-64", "disconnected-chains-5x20", "isolated-tail-er", "two-isolated"} {
		if !seen[want] {
			t.Fatalf("corpus is missing pathological graph %q", want)
		}
	}
}
