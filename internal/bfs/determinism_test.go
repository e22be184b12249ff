package bfs

import (
	"context"
	"reflect"
	"testing"
	"time"

	"micgraph/internal/gen"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// fakeTicker is a deterministic phase clock: each read advances 1 µs.
func fakeTicker() func() time.Time {
	tick := int64(0)
	return func() time.Time {
		tick++
		return time.Unix(0, tick*1000)
	}
}

// TestLevelSamplesBitDeterministic: single-worker instrumented BFS runs
// under a fake clock must produce byte-identical per-level samples across
// the TLS-queue, layered, and bag variants — durations included. This is
// the end-to-end guarantee behind the wallclock analyzer.
func TestLevelSamplesBitDeterministic(t *testing.T) {
	g := gen.RMAT(10, 8, 0.45, 0.22, 0.22, 42)
	source := int32(g.NumVertices() / 2)

	variants := map[string]func(ctx context.Context) error{
		"tlsqueue": func(ctx context.Context) error {
			team := sched.NewTeam(1)
			defer team.Close()
			_, err := NewScratch().TLSTeam(ctx, g, source, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 64})
			return err
		},
		"layered-team": func(ctx context.Context) error {
			team := sched.NewTeam(1)
			defer team.Close()
			_, err := NewScratch().BlockTeam(ctx, g, source, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 64}, 128, true)
			return err
		},
		"bag": func(ctx context.Context) error {
			pool := sched.NewPool(1)
			defer pool.Close()
			_, err := NewScratch().BagCilk(ctx, g, source, pool, 64)
			return err
		},
	}
	for name, kernel := range variants {
		t.Run(name, func(t *testing.T) {
			run := func() []telemetry.PhaseSample {
				rec := telemetry.NewMemRecorder()
				ctx := telemetry.WithRecorder(context.Background(), telemetry.WithClock(rec, fakeTicker()))
				if err := kernel(ctx); err != nil {
					t.Fatal(err)
				}
				return rec.Samples()
			}
			a, b := run(), run()
			if len(a) == 0 {
				t.Fatal("no samples recorded")
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("instrumented runs differ:\n%v\n%v", a, b)
			}
		})
	}
}
