package coloring

import (
	"sync/atomic"
	"testing"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// TestColorPublishVerifyInlineRound drives the branch no test can reach by
// timing alone. The first round's body is replaced by what two workers in
// lockstep produce on one edge — both endpoints gather before either
// publishes, so both take color 1, and each verify sees the other's store —
// which leaves the work list as long as it was. The round after that must
// run on the caller, whole, and end the coloring.
func TestColorPublishVerifyInlineRound(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})
	team := sched.NewTeam(2)
	defer team.Close()
	counters := telemetry.NewCounters(2)
	team.SetCounters(counters)

	s := NewScratch()
	s.ensureBody()
	real := s.body
	var calls atomic.Int64
	s.body = func(lo, hi, w int) {
		if calls.Add(1) <= 2 { // round one, a vertex per claim
			v := s.vs[lo]
			atomic.StoreInt32(&s.colors[v], 1)
			appendConflict(s.nextBuf, &s.count, v)
			return
		}
		if lo != 0 || hi != 2 || w != 0 {
			t.Errorf("second round ran [%d,%d) on worker %d, want all of it on the caller as worker 0", lo, hi, w)
		}
		real(lo, hi, w)
	}
	res, err := s.ColorTeam(nil, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 1, SerialBelow: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || len(res.Conflicts) != 2 || res.Conflicts[0] != 2 || res.Conflicts[1] != 0 {
		t.Errorf("rounds = %d, conflicts = %v, want 2 rounds, [2 0]", res.Rounds, res.Conflicts)
	}
	if res.NumColors != 2 {
		t.Errorf("NumColors = %d, want 2", res.NumColors)
	}
	if calls.Load() != 3 {
		t.Errorf("%d body calls, want 2 in the first round and 1 in the second", calls.Load())
	}
	// Round one went through the team, one vertex per claim; round two did
	// not go through it at all.
	if got := counters.Total(telemetry.ChunksClaimed); got != 2 {
		t.Errorf("the team ran %d chunks, want the first round's 2", got)
	}
}
