package coloring

import (
	"sync/atomic"
	"testing"

	"micgraph/internal/gen"
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
		if calls.Add(1) <= 2 { // round one, a vertex per claim, its list the identity
			v := int32(lo)
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

// TestColorRunBreak drives round one in a chunk order a thief breaks:
// worker 0 colors [0, 2), worker 1 takes [2, 4), the chunk at the end of
// worker 0's run, and worker 0 goes on at [4, 6). Worker 0's run must start
// again at 4, so that the verify of its new chunk re-reads the arcs into
// the thief's chunk. The thief's store that such a verify exists for lands
// between vertex 4's gather and its verify, which no script of whole chunks
// can reach; it is planted after the chunk instead, and the verify that
// speculate ran for vertex 4 — the same neighbors, color and run — must see
// it and queue the vertex. A run that kept its start across the break would
// skip the arc, and the clash would survive the round.
func TestColorRunBreak(t *testing.T) {
	g := gen.Complete(6)
	team := sched.NewTeam(2)
	defer team.Close()

	s := NewScratch()
	s.ensureBody()
	real := s.body
	var calls atomic.Int64
	s.body = func(lo, hi, w int) {
		if calls.Add(1) > 1 {
			real(lo, hi, w)
			return
		}
		if lo != 0 || hi != 6 || w != 0 {
			t.Fatalf("round one ran [%d,%d) on worker %d, want all of it on the caller", lo, hi, w)
		}
		// Round one, one call on the caller: the script.
		real(0, 2, 0)
		real(2, 4, 1)
		real(4, 6, 0)
		if n := s.count.Load(); n != 0 {
			t.Fatalf("the scripted chunks queued %d vertices, want none: each gather saw every earlier store", n)
		}
		for w, want := range [][2]int32{{4, 6}, {2, 4}} {
			if wk := s.workers[w]; wk.from != want[0] || wk.end != want[1] {
				t.Errorf("worker %d's run is [%d, %d), want [%d, %d)", w, wk.from, wk.end, want[0], want[1])
			}
		}
		const v = 4
		c := s.colors[v]
		atomic.StoreInt32(&s.colors[3], c)
		wk := s.workers[0]
		if !clashOutside(s.colors, g.Adj(v), c, wk.from, wk.end) {
			t.Errorf("vertex %d's verify over the run [%d, %d) missed vertex 3 of the thief's chunk holding its color %d", v, wk.from, wk.end, c)
			return
		}
		appendConflict(s.nextBuf, &s.count, v)
	}
	// Six vertices are under the team's cutoff, so each round runs inline as
	// one call, and no claim of the team's runs beside the script.
	res, err := s.ColorTeam(nil, g, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || res.Conflicts[0] != 1 || res.Conflicts[1] != 0 {
		t.Errorf("rounds = %d, conflicts = %v, want 2 rounds, [1 0]", res.Rounds, res.Conflicts)
	}
	if calls.Load() != 2 {
		t.Errorf("%d body calls, want one a round", calls.Load())
	}
}

// TestWorkerRunExtend pins how a round-one chunk joins a worker's run: it
// extends the run when it starts at the run's end or ends at its start (a
// pool's leaves run in descending order), and starts a new one otherwise.
func TestWorkerRunExtend(t *testing.T) {
	for _, tc := range []struct {
		name              string
		from, end, lo, hi int32
		want              [2]int32
	}{
		{"first chunk of the round", -1, -1, 0, 100, [2]int32{0, 100}},
		{"next chunk up", 0, 100, 100, 200, [2]int32{0, 200}},
		{"next chunk down", 200, 300, 100, 200, [2]int32{100, 300}},
		{"a thief took the chunk at the end", 0, 100, 200, 300, [2]int32{200, 300}},
		{"a thief took the chunk below", 200, 300, 0, 100, [2]int32{0, 100}},
	} {
		wk := colorWorker{from: tc.from, end: tc.end}
		wk.extend(tc.lo, tc.hi)
		if got := [2]int32{wk.from, wk.end}; got != tc.want {
			t.Errorf("%s: [%d, %d) + [%d, %d) = %v, want %v", tc.name, tc.from, tc.end, tc.lo, tc.hi, got, tc.want)
		}
	}
}
