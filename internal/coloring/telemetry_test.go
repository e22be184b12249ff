package coloring

import (
	"context"
	"testing"

	"micgraph/internal/gen"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

func checkRoundSamples(t *testing.T, variant string, g int, res Result, samples []telemetry.PhaseSample) {
	t.Helper()
	if len(samples) != res.Rounds {
		t.Errorf("%s: %d round samples, want %d", variant, len(samples), res.Rounds)
		return
	}
	for i, s := range samples {
		if s.Kernel != "coloring" || s.Phase != "round" {
			t.Errorf("%s: sample %d labelled %s/%s", variant, i, s.Kernel, s.Phase)
		}
		if s.Index != i {
			t.Errorf("%s: sample %d has index %d", variant, i, s.Index)
		}
		if int(s.Claims) != res.Conflicts[i] {
			t.Errorf("%s: round %d claims = %d, conflicts = %d", variant, i, s.Claims, res.Conflicts[i])
		}
		if s.Duration <= 0 {
			t.Errorf("%s: round %d has non-positive duration", variant, i)
		}
	}
	if samples[0].Items != int64(g) {
		t.Errorf("%s: round 0 items = %d, want all %d vertices", variant, samples[0].Items, g)
	}
}

func TestColoringRecordsRounds(t *testing.T) {
	g := gen.RingOfCliques(60, 8)
	n := g.NumVertices()

	t.Run("team", func(t *testing.T) {
		team := sched.NewTeam(4)
		defer team.Close()
		rec := telemetry.NewMemRecorder()
		ctx := telemetry.WithRecorder(context.Background(), rec)
		res, err := NewScratch().ColorTeam(ctx, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 16})
		if err != nil {
			t.Fatal(err)
		}
		checkRoundSamples(t, "team", n, res, rec.Samples())
	})
	t.Run("cilk", func(t *testing.T) {
		pool := sched.NewPool(4)
		defer pool.Close()
		rec := telemetry.NewMemRecorder()
		ctx := telemetry.WithRecorder(context.Background(), rec)
		res, err := NewScratch().ColorCilk(ctx, g, pool, 16, CilkHolder)
		if err != nil {
			t.Fatal(err)
		}
		checkRoundSamples(t, "cilk", n, res, rec.Samples())
	})
	t.Run("tbb", func(t *testing.T) {
		pool := sched.NewPool(4)
		defer pool.Close()
		rec := telemetry.NewMemRecorder()
		ctx := telemetry.WithRecorder(context.Background(), rec)
		res, err := NewScratch().ColorTBB(ctx, g, pool, sched.SimplePartitioner, 16)
		if err != nil {
			t.Fatal(err)
		}
		checkRoundSamples(t, "tbb", n, res, rec.Samples())
	})
}
