package bfs

import (
	"context"
	"testing"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

func recordedRun(t *testing.T, g *graph.Graph, run func(ctx context.Context) (Result, error)) (Result, []telemetry.PhaseSample) {
	t.Helper()
	rec := telemetry.NewMemRecorder()
	ctx := telemetry.WithRecorder(context.Background(), rec)
	res, err := run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Samples()
}

func checkLevelSamples(t *testing.T, variant string, res Result, samples []telemetry.PhaseSample) {
	t.Helper()
	if len(samples) != res.NumLevels {
		t.Errorf("%s: %d level samples, want %d (one per expanded level)",
			variant, len(samples), res.NumLevels)
		return
	}
	var items int64
	for i, s := range samples {
		if s.Kernel != "bfs" || s.Phase != "level" && s.Phase != "level-dense" {
			t.Errorf("%s: sample %d labelled %s/%s", variant, i, s.Kernel, s.Phase)
		}
		if s.Index != i {
			t.Errorf("%s: sample %d has index %d", variant, i, s.Index)
		}
		if s.Duration <= 0 {
			t.Errorf("%s: sample %d has non-positive duration", variant, i)
		}
		items += s.Items
	}
	if samples[0].Items != 1 {
		t.Errorf("%s: level-0 items = %d, want 1 (the source)", variant, samples[0].Items)
	}
	if items != res.Processed {
		t.Errorf("%s: sample items sum to %d, result processed %d", variant, items, res.Processed)
	}
}

func TestBlockTeamRecordsLevels(t *testing.T) {
	g := gen.Grid2D(30, 30)
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 8}
	res, samples := recordedRun(t, g, func(ctx context.Context) (Result, error) {
		return NewScratch().BlockTeam(ctx, g, 0, team, opts, 32, false)
	})
	checkLevelSamples(t, "omp-block", res, samples)
}

func TestBlockTBBRecordsLevels(t *testing.T) {
	g := gen.Grid2D(30, 30)
	pool := sched.NewPool(4)
	defer pool.Close()
	res, samples := recordedRun(t, g, func(ctx context.Context) (Result, error) {
		return NewScratch().BlockTBB(ctx, g, 0, pool, sched.SimplePartitioner, 32, 32, false)
	})
	checkLevelSamples(t, "tbb-block", res, samples)
}

func TestTLSRecordsLevels(t *testing.T) {
	g := gen.Grid2D(30, 30)
	team := sched.NewTeam(4)
	defer team.Close()
	res, samples := recordedRun(t, g, func(ctx context.Context) (Result, error) {
		return NewScratch().TLSTeam(ctx, g, 0, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 8})
	})
	checkLevelSamples(t, "tls", res, samples)
}

func TestBagRecordsLevels(t *testing.T) {
	g := gen.Grid2D(30, 30)
	pool := sched.NewPool(4)
	defer pool.Close()
	res, samples := recordedRun(t, g, func(ctx context.Context) (Result, error) {
		return NewScratch().BagCilk(ctx, g, 0, pool, 0)
	})
	checkLevelSamples(t, "bag", res, samples)
}

// TestUninstrumentedRecordsNothing: without a recorder in the context the
// kernel must not record (and must still be correct).
func TestUninstrumentedRecordsNothing(t *testing.T) {
	g := gen.Grid2D(20, 20)
	team := sched.NewTeam(2)
	defer team.Close()
	res, err := NewScratch().BlockTeam(context.Background(), g, 0, team,
		sched.ForOptions{Policy: sched.Dynamic, Chunk: 8}, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, 0, res.Levels); err != nil {
		t.Fatal(err)
	}
}
