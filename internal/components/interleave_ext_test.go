package components_test

import (
	"context"
	"testing"

	"micgraph/internal/components"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/kerneltest"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// The flag protocol and the hook sweep are tested where they race most:
// eight workers, one vertex per claim, never inline, on a graph whose labels
// travel far against the sweep, on one with many components to keep apart,
// and on a banded one in natural order, where workers side by side spread
// labels of their own and the compress sweep between rounds has them to
// lower.
const hammerWorkers = 8

var hammerOpts = sched.ForOptions{Policy: sched.Dynamic, Chunk: 1, SerialBelow: -1}

func hammerGraphs() []kerneltest.Named {
	return []kerneltest.Named{
		{Name: "rmat-12-shuffled", G: gen.RMAT(12, 8, 0.57, 0.19, 0.19, 3).Shuffled(4)},
		{Name: "disconnected-chains-16x64", G: kerneltest.Disconnected(16, 64)},
		{Name: "grid-24x24x24", G: gen.Grid3D(24, 24, 24)},
	}
}

// hammer runs one kernel (a method expression) runs times — a tenth of that
// under the race detector, which is tenfold slower, and CI repeats these
// tests twenty times — on one recycled Scratch. Whatever the interleaving,
// every label must be its component's minimum — the sequential labelling,
// vertex for vertex — and the samples must pass check.
func hammer(t *testing.T, runs int, run func(*components.Scratch, context.Context, *graph.Graph, *sched.Team, sched.ForOptions) (components.Result, error),
	check func(g *graph.Graph, res components.Result, samples []telemetry.PhaseSample) bool) {
	if kerneltest.RaceEnabled {
		runs /= 10
	}
	team := sched.NewTeam(hammerWorkers)
	defer team.Close()
	scratch := components.NewScratch()
	rec := telemetry.NewMemRecorder()
	ctx := telemetry.WithRecorder(context.Background(), rec)
	for _, nm := range hammerGraphs() {
		want := components.Sequential(nm.G)
		for i := 0; i < runs; i++ {
			rec.Reset()
			res, err := run(scratch, ctx, nm.G, team, hammerOpts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want.Count {
				t.Fatalf("%s run %d: %d components, want %d", nm.Name, i, res.Count, want.Count)
			}
			for v, l := range res.Labels {
				if l != want.Labels[v] {
					t.Fatalf("%s run %d: label[%d] = %d, component minimum is %d", nm.Name, i, v, l, want.Labels[v])
				}
			}
			if samples := rec.Samples(); !check(nm.G, res, samples) {
				t.Fatalf("%s run %d: %d rounds, %d components, samples %+v", nm.Name, i, res.Rounds, res.Count, samples)
			}
		}
	}
}

func TestLabelPropInterleavings(t *testing.T) {
	hammer(t, 200, (*components.Scratch).LabelPropagation, func(g *graph.Graph, res components.Result, samples []telemetry.PhaseSample) bool {
		if err := components.CheckLabelPropSamples(g, res, samples); err != nil {
			t.Log(err)
			return false
		}
		return true
	})
}

func TestHookInterleavings(t *testing.T) {
	hammer(t, 200, (*components.Scratch).PointerJumping, func(g *graph.Graph, res components.Result, samples []telemetry.PhaseSample) bool {
		// Every edge hooked once, and exactly one hook won per tree lost —
		// a hook counted twice or dropped by a lost CAS shows here.
		n := int64(g.NumVertices())
		return res.Rounds == 1 && len(samples) == 2 &&
			samples[0].Phase == "hook" && samples[0].Items == n && samples[0].Edges == g.NumArcs()/2 &&
			samples[0].Claims == n-int64(res.Count) &&
			samples[1].Phase == "compress" && samples[1].Items == n
	})
}
