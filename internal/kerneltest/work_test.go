package kerneltest

import (
	"context"
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/kernels"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// componentsSamples runs a components table entry on a 1-worker Runtime,
// where nothing races and the counts are a pure function of the kernel code,
// and returns its rounds and the samples it recorded.
func componentsSamples(t *testing.T, rt *kernels.Runtime, variant string, g *graph.Graph) (int, []telemetry.PhaseSample) {
	t.Helper()
	e, ok := kernels.Lookup(kernels.Components, variant)
	if !ok {
		t.Fatalf("no components variant %q in the table", variant)
	}
	rec := telemetry.NewMemRecorder()
	out, err := e.Run(telemetry.WithRecorder(context.Background(), rec), rt, g,
		kernels.Params{Chunk: 16, Policy: sched.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	return out.Components.Rounds, rec.Samples()
}

// componentsWork is componentsSamples with the arcs each recorded phase
// walked in total.
func componentsWork(t *testing.T, rt *kernels.Runtime, variant string, g *graph.Graph) (rounds int, walked map[string]int64) {
	t.Helper()
	rounds, samples := componentsSamples(t, rt, variant, g)
	walked = map[string]int64{}
	for _, s := range samples {
		walked[s.Phase] += s.Edges
	}
	return rounds, walked
}

// TestComponentsWorkInflation is the work-efficiency gate of the parallel
// components kernels (arcs walked / arcs, exact at one worker): label
// propagation re-walks only vertices whose label fell after their walk, so
// it stays under two passes over the arcs on every corpus graph — one pass
// on the structured ones, where a lower neighbour has always been walked
// first — and the union-find hooks every edge exactly once. Sweeping every
// arc until a sweep changes nothing costs two passes at the very least.
func TestComponentsWorkInflation(t *testing.T) {
	rt := kernels.NewRuntime(1)
	defer rt.Close()
	for _, nm := range Corpus() {
		arcs := nm.G.NumArcs()
		if _, walked := componentsWork(t, rt, "labelprop", nm.G); walked["round"] < arcs || walked["round"] >= 2*arcs && arcs > 0 {
			t.Errorf("%s: label propagation walked %d arcs of %d, want [1, 2) passes", nm.Name, walked["round"], arcs)
		}
		if rounds, walked := componentsWork(t, rt, "pointerjump", nm.G); rounds != 1 || walked["hook"] != arcs/2 || walked["compress"] != 0 {
			t.Errorf("%s: pointer jumping took %d rounds and walked %v arcs of %d, want one hook sweep over every edge once",
				nm.Name, rounds, walked, arcs)
		}
	}
}

// TestLabelPropCompressCarriesLabel pins, exactly, the round that the
// compress sweep between two rounds saves. The graph is the path 1–2–…–k
// and the detour 0–(k+1)–(k+2)–1. At one worker, round 0 spreads label 1
// down the path, and only then does vertex k+2 bring label 0 to vertex 1.
// Every path vertex now points at vertex 1, which points at 0, so the
// compress sweep lowers the k−1 of them without a walk, and round 1 walks
// vertex 1 alone over its 2 arcs. Without the sweep, round 1 walked the
// whole path again: k vertices, 2k−1 arcs.
func TestLabelPropCompressCarriesLabel(t *testing.T) {
	rt := kernels.NewRuntime(1)
	defer rt.Close()
	const k = 1000
	b := graph.NewBuilder(k + 3)
	for v := int32(1); v < k; v++ {
		b.AddEdge(v, v+1)
	}
	b.AddEdge(0, k+1)
	b.AddEdge(k+1, k+2)
	b.AddEdge(k+2, 1)
	rounds, samples := componentsSamples(t, rt, "labelprop", b.Build())
	if rounds != 2 || len(samples) != 3 ||
		samples[1].Phase != "compress" || samples[1].Claims != k-1 ||
		samples[2].Phase != "round" || samples[2].Items != 1 || samples[2].Edges != 2 {
		t.Errorf("%d rounds, samples %+v; want round 0, a compress sweep lowering %d labels, round 1 walking 1 vertex over 2 arcs",
			rounds, samples, k-1)
	}
}

// TestComponentsWorstCase pins the documented worst case side by side: on a
// long chain in shuffled order a label advances only along the runs of the
// chain that ascend in vertex order, a few hops per sweep, so label
// propagation needs rounds in proportion to the diameter (data-driven, they
// cost several passes over the arcs in all rather than one each), while the
// union-find has no such dependence: one hook sweep. The compress sweep
// between rounds shortens the chain's run (590 rounds, 1 664 without it) but
// keeps it in the hundreds: a label jumps only as far as the root it points
// at, and on a shuffled chain that root is mostly a vertex no walk has
// lowered yet.
func TestComponentsWorstCase(t *testing.T) {
	rt := kernels.NewRuntime(1)
	defer rt.Close()
	g := gen.Chain(4096).Shuffled(1)
	arcs := g.NumArcs()
	rounds, walked := componentsWork(t, rt, "labelprop", g)
	if rounds < 100 || walked["round"] < 3*arcs || walked["round"] > int64(rounds)*arcs/10 {
		t.Errorf("label propagation: %d rounds walking %d arcs of %d, want hundreds of rounds costing several passes, not one each",
			rounds, walked["round"], arcs)
	}
	if rounds, walked := componentsWork(t, rt, "pointerjump", g); rounds != 1 || walked["hook"] != arcs/2 {
		t.Errorf("pointer jumping: %d rounds walking %d arcs of %d, want one hook sweep", rounds, walked["hook"], arcs)
	}
}

// TestColoringWorkInflation is the work-efficiency gate of the speculative
// coloring, exact at one worker, where a vertex's verify can meet only the
// colors that vertex's gather saw: every table variant, and the distance-2
// round, colors in one round with no conflict, and its round samples color
// every vertex once (Σ Items) over every arc once (Σ Edges, the vertices'
// degrees). A vertex colored twice or a round run again fails here by name.
func TestColoringWorkInflation(t *testing.T) {
	rt := kernels.NewRuntime(1)
	defer rt.Close()
	p := kernels.Params{Chunk: 16, Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner}
	type row struct {
		name string
		run  func(ctx context.Context, g *graph.Graph) (coloring.Result, error)
	}
	var rows []row
	for _, e := range kernels.Table() {
		if e.Kind != kernels.Coloring || e.Variant == kernels.Seq {
			continue
		}
		rows = append(rows, row{e.Variant, func(ctx context.Context, g *graph.Graph) (coloring.Result, error) {
			out, err := e.Run(ctx, rt, g, p)
			return out.Coloring, err
		}})
	}
	rows = append(rows, row{"openmp-d2", func(ctx context.Context, g *graph.Graph) (coloring.Result, error) {
		return rt.Col.ColorTeamD2(ctx, g, rt.Team, p.TeamOpts())
	}})
	for _, nm := range Corpus() {
		for _, r := range rows {
			rec := telemetry.NewMemRecorder()
			res, err := r.run(telemetry.WithRecorder(context.Background(), rec), nm.G)
			if err != nil {
				t.Fatal(err)
			}
			var items, edges int64
			for _, s := range rec.Samples() {
				items += s.Items
				edges += s.Edges
			}
			n, arcs := int64(nm.G.NumVertices()), nm.G.NumArcs()
			if res.Rounds != 1 || len(res.Conflicts) != 1 || res.Conflicts[0] != 0 || items != n || edges != arcs {
				t.Errorf("%s/%s: %d rounds, conflicts %v, colored %d vertices over %d arcs; want 1 round, [0], %d over %d",
					nm.Name, r.name, res.Rounds, res.Conflicts, items, edges, n, arcs)
			}
		}
	}
}

// TestBFSWorkInflation is the work-efficiency gate of the parallel BFS
// variants, exact at one worker, where nothing races and the counts are a
// pure function of the kernel code. Over the level samples a run records,
// every reached vertex is expanded once (Σ Items), every arc incident to one
// is walked once (Σ Edges — the ratio bfs.hybrid.scan_ratio reports, held to
// exactly 1), every reached vertex but the source is claimed once (Σ Claims)
// and nothing is processed twice. A frontier that holds a vertex twice, a
// level walked again or a claim counted without its push fails here by name
// instead of surfacing as a ratio in a traced run; that the levels are right
// is TestBFSMatchesOracle's business.
func TestBFSWorkInflation(t *testing.T) {
	rt := kernels.NewRuntime(1)
	defer rt.Close()
	corpus := Corpus()
	for _, e := range kernels.Table() {
		if e.Kind != kernels.BFS || e.Variant == kernels.Seq {
			continue
		}
		for _, nm := range corpus {
			for _, src := range Sources(nm.G) {
				var reached, arcs int64
				levels, _ := nm.G.Levels(src)
				for v, lv := range levels {
					if lv != bfs.Unvisited {
						reached++
						arcs += int64(nm.G.Degree(int32(v)))
					}
				}
				rec := telemetry.NewMemRecorder()
				out, err := e.Run(telemetry.WithRecorder(context.Background(), rec), rt, nm.G,
					kernels.Params{Source: src, Chunk: 16, Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner})
				if err != nil {
					t.Fatal(err)
				}
				var items, edges, claims int64
				for _, s := range rec.Samples() {
					items += s.Items
					edges += s.Edges
					claims += s.Claims
				}
				if items != reached || edges != arcs || claims != reached-1 || out.BFS.Duplicates != 0 {
					t.Errorf("%s/%s from %d: expanded %d vertices, walked %d arcs, claimed %d, %d duplicates; want %d, %d, %d, 0",
						nm.Name, e.Variant, src, items, edges, claims, out.BFS.Duplicates, reached, arcs, reached-1)
				}
			}
		}
	}
}
