package kerneltest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/kernels"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// The oracle suites run on a small worker count so that single-CPU runs
// still interleave (the -race job shakes the claim protocols).

// TestTableMatchesOracle runs every entry of the kernels table on every
// corpus graph (from every source, for BFS) through one recycled Runtime —
// the way the daemon runs them — and checks the outcome with the table's
// own validator and with the kind's stricter comparison helper.
func TestTableMatchesOracle(t *testing.T) {
	rt := kernels.NewRuntime(4)
	defer rt.Close()
	for _, nm := range Corpus() {
		for _, e := range kernels.Table() {
			sources := []int32{0}
			if e.Kind == kernels.BFS {
				sources = Sources(nm.G)
			}
			for _, src := range sources {
				name := fmt.Sprintf("%s/%s/%s from %d", nm.Name, e.Kind, e.Variant, src)
				p := kernels.Params{Source: src, Chunk: 16, Iters: 3,
					Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner}
				out, err := e.Run(context.Background(), rt, nm.G, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := e.Validate(context.Background(), rt, nm.G, p, out); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch e.Kind {
				case kernels.BFS:
					CheckBFS(t, name, nm.G, src, out.BFS.Result)
				case kernels.Coloring:
					CheckColoring(t, name, nm.G, out.Coloring)
				case kernels.Components:
					CheckComponents(t, name, nm.G, out.Components)
				}
			}
		}
	}
}

// TestBFSMatchesOracle holds the exactly-once claim protocols to more than
// the level assignment: no locked variant may process a vertex twice, and
// the hybrid's direction switch must do what its thresholds say.
func TestBFSMatchesOracle(t *testing.T) {
	rt := kernels.NewRuntime(4)
	defer rt.Close()
	p := kernels.Params{Chunk: 8, Policy: sched.Dynamic, Partitioner: sched.AutoPartitioner}

	type row struct {
		name string
		run  func(nm Named, source int32) bfs.Result
	}
	var rows []row
	for _, variant := range []string{"omp-block", "tbb-block", "tls", "hybrid"} {
		e, ok := kernels.Lookup(kernels.BFS, variant)
		if !ok {
			t.Fatalf("no bfs variant %q in the table", variant)
		}
		rows = append(rows, row{variant, func(nm Named, s int32) bfs.Result {
			q := p
			q.Source = s
			out, err := e.Run(context.Background(), rt, nm.G, q)
			if err != nil {
				t.Fatalf("%s/%s from %d: %v", nm.Name, e.Variant, s, err)
			}
			return out.BFS.Result
		}})
	}
	// hybrid runs the direction-optimizing BFS under cfg and checks that the
	// switch did what the row's name says: with bottomUp > 0 every source
	// that has a neighbour must take a bottom-up level, with bottomUp < 0 no
	// source may take one.
	hybrid := func(cfg bfs.HybridConfig, bottomUp int) func(nm Named, s int32) bfs.Result {
		return func(nm Named, s int32) bfs.Result {
			res, err := rt.BFS.Hybrid(context.Background(), nm.G, s, rt.Team,
				sched.ForOptions{Policy: sched.Dynamic, Chunk: 16}, cfg)
			if err != nil {
				t.Fatalf("%s from %d: %v", nm.Name, s, err)
			}
			if got := res.BottomUpLevels; bottomUp > 0 && got == 0 && nm.G.Degree(s) > 0 || bottomUp < 0 && got != 0 {
				t.Errorf("%s from %d: beta=%d took %d bottom-up levels of %d",
					nm.Name, s, cfg.Beta, got, res.NumLevels)
			}
			return res.Result
		}
	}
	rows = append(rows,
		// A huge beta makes every frontier count as wide, so even on the
		// sparse corpus graphs the source level, which has no frontier
		// before it and so counts as unbounded growth, enters bottom-up
		// and every level after it stays there; beta 1 is the other
		// extreme and never leaves top-down.
		row{"hybrid-eager", hybrid(bfs.HybridConfig{Beta: 1 << 20}, +1)},
		row{"hybrid-lazy", hybrid(bfs.HybridConfig{Beta: 1}, -1)},
	)

	for _, nm := range Corpus() {
		for _, v := range rows {
			for _, src := range Sources(nm.G) {
				got := v.run(nm, src)
				CheckBFS(t, nm.Name+"/"+v.name, nm.G, src, got)
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

// histogram counts levels' vertices at each of the first numLevels levels;
// ok is false when a vertex sits at a level past them.
func histogram(levels []int32, numLevels int) (widths []int64, ok bool) {
	widths = make([]int64, numLevels)
	for _, l := range levels {
		if int(l) >= numLevels {
			return widths, false
		}
		if l != bfs.Unvisited {
			widths[l]++
		}
	}
	return widths, true
}

// checkWidths holds a BFS outcome's level profile to its level array: one
// width a level, each the count of that level's vertices, summing to the
// result line's Reached, and every processed entry past them a duplicate.
// It is what makes the widths the runs count where they claim vertices exact.
func checkWidths(t *testing.T, name string, e kernels.Entry, out kernels.Outcome, p kernels.Params) {
	t.Helper()
	res := out.BFS.Result
	hist, ok := histogram(res.Levels, res.NumLevels)
	if !ok || len(res.Widths) != res.NumLevels {
		t.Fatalf("%s: %d levels but widths %v", name, res.NumLevels, res.Widths)
	}
	var reached int64
	for l, w := range res.Widths {
		if w != hist[l] {
			t.Fatalf("%s: widths %v, level array holds %v", name, res.Widths, hist)
		}
		reached += w
	}
	if line := out.Line(e, name, p); int64(line.Reached) != reached {
		t.Fatalf("%s: result line reached %d, widths sum to %d", name, line.Reached, reached)
	}
	if res.Duplicates != max(res.Processed-reached, 0) {
		t.Fatalf("%s: %d duplicates, processed %d, reached %d", name, res.Duplicates, res.Processed, reached)
	}
}

// TestBFSWidthsMatchLevels checks every BFS entry's widths against its level
// array (checkWidths), and its answer against the oracle, on the corpus and
// the empty graph at one, two and three workers, and on a
// shuffled RMAT-12 at three workers and chunk 1, where the relaxed claims
// push one vertex from two workers: a relaxed claim is a swap whose return
// value counts the vertex once but never decides the push, so Processed
// runs past the widths' sum by the duplicates and the widths stay exact.
// Partial results are held to the same profile: each parallel entry is
// cancelled at the k-th chunk claim or task boundary of its engine, and the
// widths of what it returns, the cut-off level included, must match its
// level array.
func TestBFSWidthsMatchLevels(t *testing.T) {
	rmat := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 12).Shuffled(3)
	graphs := append(Corpus(), Named{"empty", graph.NewBuilder(0).Build()})
	for _, workers := range []int{1, 2, 3} {
		rt := kernels.NewRuntime(workers)
		for _, nm := range graphs {
			sources := Sources(nm.G)
			if len(sources) == 0 {
				sources = []int32{0} // the empty graph: no level, as the oracle counts it
			}
			for _, e := range kernels.Table() {
				if e.Kind != kernels.BFS {
					continue
				}
				for _, src := range sources {
					name := fmt.Sprintf("W=%d %s/%s from %d", workers, nm.Name, e.Variant, src)
					p := kernels.Params{Source: src, Chunk: 4, Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner}
					out, err := e.Run(context.Background(), rt, nm.G, p)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					CheckBFS(t, name, nm.G, src, out.BFS.Result)
					checkWidths(t, name, e, out, p)
				}
			}
		}
		rt.Close()
	}

	hub := int32(0) // a source that reaches the giant component
	for v := range int32(rmat.NumVertices()) {
		if rmat.Degree(v) > rmat.Degree(hub) {
			hub = v
		}
	}
	rt := kernels.NewRuntime(3)
	defer rt.Close()
	duplicates := int64(0)
	// Duplicates need two claimers inside one check-then-swap window, so a
	// round of runs may see none; the rounds stop at the first that does.
	for round := 0; round < 20 && (round == 0 || duplicates == 0); round++ {
		for _, e := range kernels.Table() {
			if e.Kind != kernels.BFS {
				continue
			}
			for _, src := range append(Sources(rmat), hub) {
				p := kernels.Params{Source: src, Chunk: 1, Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner}
				name := fmt.Sprintf("rmat-12-shuffled/%s from %d, round %d", e.Variant, src, round)
				out, err := e.Run(context.Background(), rt, rmat, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkWidths(t, name, e, out, p)
				duplicates += out.BFS.Duplicates
			}
		}
	}
	if duplicates == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Errorf("no relaxed entry processed a duplicate on rmat-12-shuffled at 3 workers, chunk 1")
	}

	for _, e := range kernels.Table() {
		if e.Kind != kernels.BFS || e.Variant == kernels.Seq {
			continue
		}
		for _, k := range []int64{1, 2, 5, 17, 60} {
			name := fmt.Sprintf("rmat-12-shuffled/%s cancelled at boundary %d", e.Variant, k)
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			rt.Team.SetInject(func(string, int) {
				if calls.Add(1) == k {
					cancel()
				}
			})
			p := kernels.Params{Source: hub, Chunk: 1, Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner}
			out, err := e.Run(ctx, rt, rmat, p)
			rt.Team.SetInject(nil)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: got %v, want context.Canceled", name, err)
			}
			checkWidths(t, name, e, out, p)
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

// TestBFSScratchAlternatesVariants runs every BFS entry of the table in
// table order, twice round, on one Runtime of two and of three workers: one
// Scratch, whose one Loop is re-bound from a Team loop to a cilk_for to a
// TBB range and back from run to run, under every partitioner. Each outcome
// must pass the table's validator, and the locked entries must process no
// vertex twice.
func TestBFSScratchAlternatesVariants(t *testing.T) {
	graphs := map[string]bool{
		"star-500": true, "disconnected-chains-5x20": true, "isolated-tail-er": true,
		"grid-16x16": true, "rmat-s9-skewed": true,
	}
	relaxed := map[string]bool{"omp-block-relaxed": true, "tbb-block-relaxed": true, "bag": true}
	for _, workers := range []int{2, 3} {
		rt := kernels.NewRuntime(workers)
		covered := 0
		for _, nm := range Corpus() {
			if !graphs[nm.Name] {
				continue
			}
			covered++
			for _, part := range []sched.Partitioner{sched.SimplePartitioner, sched.AutoPartitioner, sched.AffinityPartitioner} {
				for _, src := range Sources(nm.G) {
					p := kernels.Params{Source: src, Chunk: 4, Policy: sched.Dynamic, Partitioner: part}
					for round := 0; round < 2; round++ {
						for _, e := range kernels.Table() {
							if e.Kind != kernels.BFS {
								continue
							}
							name := fmt.Sprintf("W=%d %s/%s partitioner %d from %d, round %d",
								workers, nm.Name, e.Variant, part, src, round)
							out, err := e.Run(context.Background(), rt, nm.G, p)
							if err == nil {
								err = e.Validate(context.Background(), rt, nm.G, p, out)
							}
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if d := out.BFS.Duplicates; !relaxed[e.Variant] && d != 0 {
								t.Errorf("%s: %d duplicates from a locked claim", name, d)
							}
						}
					}
				}
			}
		}
		rt.Close()
		if covered != len(graphs) {
			t.Fatalf("%d of the %d named graphs are in the corpus", covered, len(graphs))
		}
	}
}

// TestColoringMatchesOracle covers the arguments the table never passes —
// a static schedule, a Cilk grain unlike the team chunk, the auto partitioner —
// on one recycled Scratch, which must stay proper across graphs.
func TestColoringMatchesOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()
	opts := sched.ForOptions{Policy: sched.Static, Chunk: 16}

	scratch := coloring.NewScratch()
	check := func(name string, g *graph.Graph, res coloring.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		CheckColoring(t, name, g, res)
	}
	for _, nm := range Corpus() {
		res, err := scratch.ColorTeam(nil, nm.G, team, opts)
		check(nm.Name+"/openmp-static", nm.G, res, err)
		res, err = scratch.ColorCilk(nil, nm.G, pool, 32, coloring.CilkHolder)
		check(nm.Name+"/cilk", nm.G, res, err)
		res, err = scratch.ColorTBB(nil, nm.G, pool, sched.AutoPartitioner, 32)
		check(nm.Name+"/tbb-auto", nm.G, res, err)
	}
}

// TestColoringD2MatchesOracle holds the distance-2 coloring, which is not a
// table row, to its oracle across worker counts and chunks. Every D2 run is
// followed by a distance-1 run on the same Scratch: the two share the
// forbidden-color arrays, sized and reset for the run at hand.
func TestColoringD2MatchesOracle(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		team := sched.NewTeam(workers)
		scratch := coloring.NewScratch()
		for _, chunk := range []int{1, 16} {
			opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: chunk}
			for _, nm := range Corpus() {
				name := fmt.Sprintf("%s/d2 workers=%d chunk=%d", nm.Name, workers, chunk)
				res, err := scratch.ColorTeamD2(context.Background(), nm.G, team, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				CheckColoringD2(t, name, nm.G, res)
				res, err = scratch.ColorTeam(context.Background(), nm.G, team, opts)
				if err != nil {
					t.Fatalf("%s, then distance 1: %v", name, err)
				}
				CheckColoring(t, name+", then distance 1", nm.G, res)
			}
		}
		team.Close()
	}
}

// TestColoringD2Cancelled cancels at the fifth chunk claim: the run must
// stop there, report the context's error and hand back what it had colored.
func TestColoringD2Cancelled(t *testing.T) {
	g := gen.Grid2D(16, 16)
	team := sched.NewTeam(4)
	defer team.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var claims atomic.Int64
	team.SetInject(func(string, int) {
		if claims.Add(1) == 5 {
			cancel()
		}
	})
	res, err := coloring.NewScratch().ColorTeamD2(ctx, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	colored := 0
	for _, c := range res.Colors {
		if c != 0 {
			colored++
		}
	}
	if n := g.NumVertices(); len(res.Colors) != n || colored == 0 || colored >= n || res.Rounds != 1 {
		t.Errorf("partial coloring has %d of %d vertices colored after %d rounds, want some, not all, in round 1",
			colored, n, res.Rounds)
	}
}

// TestColoringCheckContainsPanic panics at the third chunk claim of every
// coloring entry's check: Entry.Validate must return the engine's
// *sched.PanicError, not a verdict on the coloring, and the same Runtime's
// next run must pass the check. The check's claims go through the engine's
// fault hook and book into its counters, like the kernel's.
func TestColoringCheckContainsPanic(t *testing.T) {
	g := gen.Grid2D(40, 40)
	p := kernels.Params{Chunk: 16, Policy: sched.Dynamic}
	rt := kernels.NewRuntime(3)
	defer rt.Close()
	counters := telemetry.NewCounters(3)
	rt.SetCounters(counters)
	for _, e := range kernels.Table() {
		if e.Kind != kernels.Coloring {
			continue
		}
		out, err := e.Run(context.Background(), rt, g, p)
		if err != nil {
			t.Fatalf("%s: %v", e.Variant, err)
		}
		var claims atomic.Int64
		rt.Team.SetInject(func(site string, _ int) {
			if site == "team/chunk" && claims.Add(1) == 3 {
				panic("injected into the check")
			}
		})
		err = e.Validate(context.Background(), rt, g, p, out)
		rt.Team.SetInject(nil)
		var pe *sched.PanicError
		if !errors.As(err, &pe) || pe.Value != "injected into the check" {
			t.Fatalf("%s: check with a panicking claim returned %v, want the *sched.PanicError", e.Variant, err)
		}
		out, err = e.Run(context.Background(), rt, g, p)
		if err != nil {
			t.Fatalf("%s: next run: %v", e.Variant, err)
		}
		before := counters.Total(telemetry.ChunksClaimed)
		if err := e.Validate(context.Background(), rt, g, p, out); err != nil {
			t.Fatalf("%s: next check: %v", e.Variant, err)
		}
		if booked := counters.Total(telemetry.ChunksClaimed) - before; booked < int64(g.NumVertices()/p.Chunk) {
			t.Errorf("%s: the check booked %d chunk claims, want at least %d", e.Variant, booked, g.NumVertices()/p.Chunk)
		}
	}
}

// TestEveryEntryCancels cancels every parallel entry of the table at the
// fifth chunk-claim or task boundary of its runtimes: the run must return
// the context's error, and the same Runtime's next run, uncancelled, must
// pass the oracle. A kernel that loses its context on the way down to the
// scheduler runs to the end and fails the first half.
func TestEveryEntryCancels(t *testing.T) {
	g := gen.Grid2D(40, 40)
	p := kernels.Params{Chunk: 1, Policy: sched.Dynamic, Iters: 3}
	for _, e := range kernels.Table() {
		if e.Variant == kernels.Seq {
			continue
		}
		t.Run(e.Kind+"/"+e.Variant, func(t *testing.T) {
			rt := kernels.NewRuntime(4)
			defer rt.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			hook := func(string, int) {
				if calls.Add(1) == 5 {
					cancel()
				}
			}
			rt.Team.SetInject(hook)
			_, err := e.Run(ctx, rt, g, p)
			rt.Team.SetInject(nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled at the fifth boundary: got %v, want context.Canceled", err)
			}
			out, err := e.Run(context.Background(), rt, g, p)
			if err == nil {
				err = e.Validate(context.Background(), rt, g, p, out)
			}
			if err != nil {
				t.Fatalf("next run after the cancelled one: %v", err)
			}
		})
	}
}

// TestComponentsMatchOracle does the same for components: guided and
// static schedules on one recycled Scratch.
func TestComponentsMatchOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()

	scratch := components.NewScratch()
	check := func(name string, g *graph.Graph, res components.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		CheckComponents(t, name, g, res)
	}
	for _, nm := range Corpus() {
		res, err := scratch.LabelPropagation(nil, nm.G, team, sched.ForOptions{Policy: sched.Guided, Chunk: 16})
		check(nm.Name+"/labelprop-guided", nm.G, res, err)
		res, err = scratch.PointerJumping(nil, nm.G, team, sched.ForOptions{Policy: sched.Static, Chunk: 16})
		check(nm.Name+"/pointerjump-static", nm.G, res, err)
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
