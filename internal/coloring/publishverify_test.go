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

// TestLocalChunk pins which round-one chunks take the chunk-local verify:
// those whose first vertex has a neighbor later in the chunk, and no other.
func TestLocalChunk(t *testing.T) {
	// 0: [2]  1: [2 3]  2: [0 1 3]  3: [1 2 5 6]  4: []  5: [3]  6: [3]
	g := graph.MustFromEdges(7, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}, {U: 3, V: 5}, {U: 3, V: 6}})
	for _, tc := range []struct {
		name   string
		lo, hi int32
		want   bool
	}{
		{"later neighbor inside", 0, 3, true},
		{"later neighbor just past the end", 0, 2, false},
		{"later neighbor at the last vertex", 1, 3, true},
		{"earlier and later neighbors", 2, 4, true},
		{"only an earlier neighbor", 5, 7, false},
		{"the graph's last vertex", 6, 7, false},
		{"isolated first vertex", 4, 7, false},
		{"one vertex, its later neighbor next", 1, 2, false},
	} {
		if got := localChunk(g.Xadj(), g.AdjRaw(), tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: localChunk([%d, %d)) = %v, want %v", tc.name, tc.lo, tc.hi, got, tc.want)
		}
	}
}
