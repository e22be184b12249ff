package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"micgraph/internal/telemetry"
)

// TestTeamCountersChunks: every chunk a Team loop hands to a body must show
// up in ChunksClaimed, and the per-policy chunk counts must match what the
// body observed. Steals counts the Dynamic claims made in another worker's
// block, so it is a share of ChunksClaimed, and 0 under the other policies.
func TestTeamCountersChunks(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		team := NewTeam(4)
		counters := telemetry.NewCounters(4)
		team.SetCounters(counters)
		var calls atomic.Int64
		check(t, team.ForE(1000, ForOptions{Policy: policy, Chunk: 10}, func(lo, hi, w int) {
			calls.Add(1)
		}))
		team.Close()
		chunks, steals := counters.Total(telemetry.ChunksClaimed), counters.Total(telemetry.Steals)
		if chunks != calls.Load() {
			t.Errorf("policy %v: chunks_claimed = %d, body calls = %d", policy, chunks, calls.Load())
		}
		if calls.Load() == 0 {
			t.Errorf("policy %v: loop body never ran", policy)
		}
		if steals > chunks || (policy != Dynamic && steals != 0) {
			t.Errorf("policy %v: steals = %d of %d chunks", policy, steals, chunks)
		}
	}

	// A loop whose block 0 is slow is finished by the other workers, and
	// each chunk of it they ran is a steal.
	team := NewTeam(4)
	defer team.Close()
	counters := telemetry.NewCounters(4)
	team.SetCounters(counters)
	var foreign int64
	for w, chunks := range skewedLoop(t, team) {
		if w != 0 {
			foreign += chunks
		}
	}
	if steals := counters.Total(telemetry.Steals); foreign == 0 || steals < foreign {
		t.Errorf("steals = %d, but %d chunks of block 0 ran on other workers", steals, foreign)
	}
}

// TestTeamCountersPanics: contained body panics are counted.
func TestTeamCountersPanics(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	counters := telemetry.NewCounters(2)
	team.SetCounters(counters)
	err := team.ForE(8, ForOptions{Policy: Static, Chunk: 4, SerialBelow: -1}, func(lo, hi, w int) {
		panic("boom")
	})
	if err == nil {
		t.Fatal("panicking loop returned nil error")
	}
	if got := counters.Total(telemetry.PanicsContained); got == 0 {
		t.Error("panics_contained = 0 after contained panic")
	}
}

// TestTeamCountersLoopTallies: with counters attached every worker books,
// per dispatched loop, how long after the loop's publication it reached its
// first claim and how long it stayed claiming — the caller, as worker 0,
// like the helpers. Both fit inside the loops' wall time, the busy tally
// holds at least the time the bodies took, and an inline loop books nothing.
func TestTeamCountersLoopTallies(t *testing.T) {
	const workers, loops, perChunk = 2, 50, 20 * time.Microsecond
	team := NewTeam(workers)
	defer team.Close()
	counters := telemetry.NewCounters(workers)
	team.SetCounters(counters)
	chunks := make([]int64, workers)
	body := func(lo, hi, w int) {
		chunks[w]++
		busyWait(perChunk)
	}
	start := time.Now()
	for i := 0; i < loops; i++ {
		check(t, team.ForCtx(nil, 8, ForOptions{Policy: Static, Chunk: 1, SerialBelow: -1}, body))
	}
	wall := time.Since(start)
	for w := 0; w < workers; w++ {
		lag := time.Duration(counters.Get(w, telemetry.LoopStartLagNS))
		busy := time.Duration(counters.Get(w, telemetry.LoopBusyNS))
		if lag < 0 || busy < time.Duration(chunks[w])*perChunk || lag+busy > wall {
			t.Errorf("worker %d: start lag %v, busy %v over %d chunks of %v in %v of loops", w, lag, busy, chunks[w], perChunk, wall)
		}
	}
	before := counters.Snapshot().Totals
	check(t, team.ForCtx(nil, workers, ForOptions{}, body)) // at the cutoff: inline
	if after := counters.Snapshot().Totals; after.LoopBusyNS != before.LoopBusyNS || after.LoopStartLagNS != before.LoopStartLagNS {
		t.Errorf("an inline loop moved the loop tallies: %+v -> %+v", before, after)
	}
}

// TestPoolCountersSpawn: explicit Spawn calls are counted as tasks, and the
// recursive For splits show up as range splits + leaf chunks.
func TestPoolCountersSpawn(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	counters := telemetry.NewCounters(4)
	pool.SetCounters(counters)

	const spawned = 64
	var ran atomic.Int64
	check(t, pool.RunCtx(nil, func(c *Ctx) {
		for i := 0; i < spawned; i++ {
			c.Spawn(func(*Ctx) { ran.Add(1) })
		}
		c.Sync()
	}))
	if ran.Load() != spawned {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), spawned)
	}
	if got := counters.Total(telemetry.TasksSpawned); got < spawned {
		t.Errorf("tasks_spawned = %d, want >= %d", got, spawned)
	}
	// Steals and failed steal tours are machine-timing dependent, but the
	// counters must never go negative and steals can't exceed spawns.
	steals := counters.Total(telemetry.Steals)
	if steals < 0 || steals > counters.Total(telemetry.TasksSpawned) {
		t.Errorf("implausible steals = %d", steals)
	}
}

// TestPoolCountersFor: cilk_for leaf ranges are claimed chunks; interior
// halvings are range splits; claimed chunks cover the iteration space.
func TestPoolCountersFor(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	counters := telemetry.NewCounters(4)
	pool.SetCounters(counters)

	var items atomic.Int64
	var leaves atomic.Int64
	check(t, pool.ParallelForCtx(nil, 1000, 16, func(lo, hi int, c *Ctx) {
		items.Add(int64(hi - lo))
		leaves.Add(1)
	}))
	if items.Load() != 1000 {
		t.Fatalf("covered %d items, want 1000", items.Load())
	}
	if got := counters.Total(telemetry.ChunksClaimed); got != leaves.Load() {
		t.Errorf("chunks_claimed = %d, leaf calls = %d", got, leaves.Load())
	}
	if got := counters.Total(telemetry.RangeSplits); got == 0 {
		t.Error("range_splits = 0 for a 1000-item grain-16 cilk_for")
	}
}

// TestTBBCountersSplits: the TBB partitioners count their subdivisions and
// leaf chunk executions.
func TestTBBCountersSplits(t *testing.T) {
	for _, part := range []Partitioner{SimplePartitioner, AutoPartitioner, AffinityPartitioner} {
		pool := NewPool(4)
		counters := telemetry.NewCounters(4)
		pool.SetCounters(counters)
		var aff *AffinityState
		if part == AffinityPartitioner {
			aff = &AffinityState{}
		}
		var items atomic.Int64
		var leaves atomic.Int64
		check(t, ParallelForRangeCtx(nil, pool, Range{Lo: 0, Hi: 1000, Grain: 16}, part, aff,
			func(lo, hi int, c *Ctx) {
				items.Add(int64(hi - lo))
				leaves.Add(1)
			}))
		pool.Close()
		if items.Load() != 1000 {
			t.Fatalf("partitioner %v covered %d items, want 1000", part, items.Load())
		}
		if got := counters.Total(telemetry.ChunksClaimed); got != leaves.Load() {
			t.Errorf("partitioner %v: chunks_claimed = %d, leaves = %d", part, got, leaves.Load())
		}
		// The simple partitioner always subdivides to the grain; auto only
		// splits under steal pressure and affinity pre-blocks the range, so
		// only simple has a guaranteed split count.
		if part == SimplePartitioner {
			if got := counters.Total(telemetry.RangeSplits); got == 0 {
				t.Errorf("partitioner %v: range_splits = 0", part)
			}
		}
	}
}

// TestCountersOffNoPanic: an uninstrumented Team/Pool (nil counters) must
// run exactly as before.
func TestCountersOffNoPanic(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	var n atomic.Int64
	check(t, team.ForE(100, ForOptions{Policy: Dynamic, Chunk: 7}, func(lo, hi, w int) {
		n.Add(int64(hi - lo))
	}))
	if n.Load() != 100 {
		t.Errorf("covered %d, want 100", n.Load())
	}

	pool := NewPool(2)
	defer pool.Close()
	n.Store(0)
	check(t, pool.ParallelForCtx(nil, 100, 8, func(lo, hi int, c *Ctx) { n.Add(int64(hi - lo)) }))
	if n.Load() != 100 {
		t.Errorf("pool covered %d, want 100", n.Load())
	}
}
