package components

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
	"micgraph/internal/xrand"
)

func randomGraph(seed uint64, n, m int) *graph.Graph {
	r := xrand.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

func ccOpts() sched.ForOptions { return sched.ForOptions{Policy: sched.Dynamic, Chunk: 8} }

// labelProp and pointerJump run one kernel on a throwaway Scratch, so two
// results can be held at once.
func labelProp(g *graph.Graph, team *sched.Team) Result {
	res, err := NewScratch().LabelPropagation(nil, g, team, ccOpts())
	if err != nil {
		panic(err)
	}
	return res
}

func pointerJump(g *graph.Graph, team *sched.Team) Result {
	res, err := NewScratch().PointerJumping(nil, g, team, ccOpts())
	if err != nil {
		panic(err)
	}
	return res
}

func TestSequentialComponents(t *testing.T) {
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	res := Sequential(g)
	if res.Count != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("count = %d, want 4", res.Count)
	}
	if res.Labels[0] != res.Labels[2] || res.Labels[0] == res.Labels[3] {
		t.Error("labels wrong")
	}
	// Labels are the minimum vertex id of the component.
	if res.Labels[2] != 0 || res.Labels[4] != 3 || res.Labels[6] != 6 {
		t.Errorf("labels not component minima: %v", res.Labels)
	}
}

func TestParallelVariantsMatchSequential(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	graphs := map[string]*graph.Graph{
		"connected": gen.Grid2D(20, 20),
		"two-halves": func() *graph.Graph {
			b := graph.NewBuilder(40)
			for i := int32(0); i < 19; i++ {
				b.AddEdge(i, i+1)
				b.AddEdge(20+i, 21+i)
			}
			return b.Build()
		}(),
		"isolated": graph.NewBuilder(25).Build(),
		"random":   randomGraph(7, 300, 350), // many small components
		"rmat":     gen.RMAT(9, 4, 0.57, 0.19, 0.19, 5),
	}
	for name, g := range graphs {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			want := Sequential(g)
			lp := labelProp(g, team)
			if err := Validate(g, lp.Labels); err != nil {
				t.Errorf("label propagation: %v", err)
			}
			if lp.Count != want.Count {
				t.Errorf("label propagation count %d, want %d", lp.Count, want.Count)
			}
			pj := pointerJump(g, team)
			if err := Validate(g, pj.Labels); err != nil {
				t.Errorf("pointer jumping: %v", err)
			}
			if pj.Count != want.Count {
				t.Errorf("pointer jumping count %d, want %d", pj.Count, want.Count)
			}
		})
	}
}

func TestComponentsProperty(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 400)
		g := randomGraph(seed, n, m)
		want := Sequential(g)
		lp := labelProp(g, team)
		pj := pointerJump(g, team)
		return lp.Count == want.Count && pj.Count == want.Count &&
			Validate(g, lp.Labels) == nil && Validate(g, pj.Labels) == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPointerJumpingLogRounds(t *testing.T) {
	// The pointer jump is the halving inside the one hook sweep, so a long
	// chain costs one round in any vertex order; label propagation's rounds
	// grow with the distance a label has to travel against the sweep.
	team := sched.NewTeam(4)
	defer team.Close()
	for name, g := range map[string]*graph.Graph{
		"natural":  gen.Chain(4096),
		"shuffled": gen.Chain(4096).Shuffled(1),
	} {
		pj := pointerJump(g, team)
		if pj.Count != 1 {
			t.Fatalf("%s chain: components = %d", name, pj.Count)
		}
		if pj.Rounds != 1 {
			t.Errorf("%s chain: pointer jumping took %d rounds, want its one hook sweep", name, pj.Rounds)
		}
		if lp := labelProp(g, team); lp.Rounds < pj.Rounds {
			t.Errorf("%s chain: label propagation (%d rounds) beat pointer jumping (%d)",
				name, lp.Rounds, pj.Rounds)
		}
	}
}

// CheckLabelPropSamples returns what is wrong with the samples a label
// propagation run on g that returned res recorded, nil if nothing: rounds
// numbered 0…Rounds−1, each with a vertex walked and the first with every
// vertex and arc; after each round but the last a compress sweep over every
// vertex that walks no arc; and every vertex but the component minima
// lowered in some sample. (Exported for the external hammer tests.)
func CheckLabelPropSamples(g *graph.Graph, res Result, samples []telemetry.PhaseSample) error {
	n := int64(g.NumVertices())
	if want := max(2*res.Rounds-1, 0); len(samples) != want {
		return fmt.Errorf("%d samples for %d rounds, want %d", len(samples), res.Rounds, want)
	}
	var lowered int64
	for i, s := range samples {
		ok := s.Phase == "round" && s.Items > 0
		if i%2 == 1 {
			ok = s.Phase == "compress" && s.Items == n && s.Edges == 0
		}
		if !ok || s.Kernel != "components" || s.Index != i/2 {
			return fmt.Errorf("sample %d is %+v, want round %d with a vertex walked or the compress sweep after it", i, s, i/2)
		}
		lowered += s.Claims
	}
	if len(samples) > 0 && (samples[0].Items != n || samples[0].Edges != g.NumArcs()) {
		return fmt.Errorf("round 0 walked %d vertices, %d arcs, want all %d, %d", samples[0].Items, samples[0].Edges, n, g.NumArcs())
	}
	if lowered < n-int64(res.Count) {
		return fmt.Errorf("%d labels lowered, want at least %d vertices − %d components", lowered, n, res.Count)
	}
	return nil
}

// TestRoundsCountWalkingSweeps pins what Result.Rounds means: the sweeps
// run, each of which walked at least one vertex — the flags are counted, so
// no empty sweep confirms the fixed point — with one sample per sweep and a
// compress sample between two rounds; for pointer jumping the hook sweep,
// which the compress sweep's sample follows.
func TestRoundsCountWalkingSweeps(t *testing.T) {
	one := sched.NewTeam(1)
	defer one.Close()
	four := sched.NewTeam(4)
	defer four.Close()
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		team   *sched.Team
		rounds int // label propagation's; -1 = at least one
	}{
		{"empty", graph.NewBuilder(0).Build(), one, 0},
		{"isolated", graph.NewBuilder(25).Build(), four, 1}, // every vertex walked, nothing lowered
		{"chain, one worker", gen.Chain(500), one, 1},       // label 0 rides the sweep to the end
		{"grid, one worker", gen.Grid2D(20, 20), one, 1},
		{"rmat-shuffled", gen.RMAT(9, 4, 0.57, 0.19, 0.19, 5).Shuffled(3), four, -1},
	} {
		n := int64(tc.g.NumVertices())
		rec := telemetry.NewMemRecorder()
		ctx := telemetry.WithRecorder(context.Background(), rec)

		lp, err := NewScratch().LabelPropagation(ctx, tc.g, tc.team, ccOpts())
		if err != nil {
			t.Fatal(err)
		}
		if tc.rounds >= 0 && lp.Rounds != tc.rounds || tc.rounds < 0 && lp.Rounds < 1 {
			t.Errorf("%s: label propagation reports %d rounds, want %d", tc.name, lp.Rounds, tc.rounds)
		}
		if err := CheckLabelPropSamples(tc.g, lp, rec.Samples()); err != nil {
			t.Errorf("%s: label propagation: %v", tc.name, err)
		}

		rec.Reset()
		pj, err := NewScratch().PointerJumping(ctx, tc.g, tc.team, ccOpts())
		if err != nil {
			t.Fatal(err)
		}
		if want := int(min(n, 1)); pj.Rounds != want || rec.Len() != 2*want {
			t.Errorf("%s: pointer jumping reports %d rounds in %d samples, want %d in %d", tc.name, pj.Rounds, rec.Len(), want, 2*want)
		}
	}
}

func TestLabelsAreComponentMinima(t *testing.T) {
	team := sched.NewTeam(3)
	defer team.Close()
	g := gen.RingOfCliques(10, 5)
	for _, res := range []Result{
		labelProp(g, team),
		pointerJump(g, team),
	} {
		for v, l := range res.Labels {
			if l > int32(v) {
				t.Fatalf("label[%d] = %d exceeds the vertex id; not a minimum", v, l)
			}
		}
		if res.Labels[0] != 0 {
			t.Error("vertex 0 must label its own component")
		}
	}
}
