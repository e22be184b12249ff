package coloring

import (
	"context"
	"reflect"
	"testing"
	"time"

	"micgraph/internal/gen"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// fakeClock returns a deterministic monotonic clock: each read advances
// one microsecond.
func fakeClock() func() time.Time {
	tick := int64(0)
	return func() time.Time {
		tick++
		return time.Unix(0, tick*1000)
	}
}

// TestRoundSamplesBitDeterministic: with a single worker (so round
// contents are sequential) and a fake phase clock, two instrumented runs
// must produce identical samples — including durations. This is the
// end-to-end guarantee the wallclock analyzer protects: no kernel code
// path reads the wall clock behind the Recorder's back.
func TestRoundSamplesBitDeterministic(t *testing.T) {
	g := gen.RingOfCliques(40, 6)
	run := func() []telemetry.PhaseSample {
		team := sched.NewTeam(1)
		defer team.Close()
		rec := telemetry.NewMemRecorder()
		ctx := telemetry.WithRecorder(context.Background(), telemetry.WithClock(rec, fakeClock()))
		if _, err := NewScratch().ColorTeam(ctx, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 16}); err != nil {
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
}
