package kerneltest

import (
	"context"
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/kernels"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// componentsWork runs a components table entry on a 1-worker Runtime, where
// nothing races and the counts are a pure function of the kernel code, and
// returns its rounds and the arcs each recorded phase walked in total.
func componentsWork(t *testing.T, rt *kernels.Runtime, variant string, g *graph.Graph) (rounds int, walked map[string]int64) {
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
	walked = map[string]int64{}
	for _, s := range rec.Samples() {
		walked[s.Phase] += s.Edges
	}
	return out.Components.Rounds, walked
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

// TestComponentsWorstCase pins the documented worst case side by side: on a
// long chain in shuffled order a label advances only along the runs of the
// chain that ascend in vertex order, a few hops per sweep, so label
// propagation needs rounds in proportion to the diameter (data-driven, they
// cost several passes over the arcs in all rather than one each), while the
// union-find has no such dependence: one hook sweep.
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
				for v, lv := range bfs.Sequential(nm.G, src).Levels {
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
