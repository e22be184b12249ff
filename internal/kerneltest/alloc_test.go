package kerneltest

import (
	"context"
	"math"
	"runtime"
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/gen"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

const (
	allocRuns   = 200 // runs per count; every ceiling is per this many runs
	allocTrials = 3
	// parked is the ceiling of the paths that still read a few mallocs
	// after warming: the runtime's sudogs, taken when a worker parks on the
	// crew's channel or waits on a contended deque mutex, drift between the
	// per-processor caches for a while before they settle. The most seen was
	// 20 per allocRuns runs (about 90 runs of this test at GOMAXPROCS 2–8 on
	// a 2-CPU guest); one allocation in every second run still fails.
	parked = allocRuns / 2
)

// fewestMallocs counts the heap allocations of allocRuns calls of run,
// allocTrials times, and returns the fewest. The count is not divided by
// the runs, so an allocation a path makes in one run of every few shows in
// each trial; a burst while the runtime's caches settle shows in one only.
func fewestMallocs(run func()) uint64 {
	var before, after runtime.MemStats
	fewest := uint64(math.MaxUint64)
	for trial := 0; trial < allocTrials; trial++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < allocRuns; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestKernelAllocCeilings pins the steady-state allocation count of every
// pooled kernel hot path, counted from runtime.MemStats over allocRuns warm
// runs. Ceilings are 0 where every count read 0 and parked where the
// runtime's own caches still allocate now and then.
//
// The gate is skipped under the race detector: -race instruments
// synchronization with allocating shadow state, so the counts are
// meaningless there (the differential-oracle tests carry the -race load).
func TestKernelAllocCeilings(t *testing.T) {
	if RaceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 16}
	g := gen.ErdosRenyi(2000, 8000, 1)
	minima := components.Sequential(g).Labels
	greedy := coloring.SeqGreedy(g).Colors

	// nopCtx carries an explicit Nop recorder: the uninstrumented
	// telemetry path must not assemble samples or read clocks, so it has
	// to hold the same zero-alloc ceiling as the nil-context path.
	nopCtx := telemetry.WithRecorder(context.Background(), telemetry.Nop)

	bblk := bfs.NewScratch()
	btbb := bfs.NewScratch()
	baff := bfs.NewScratch()
	btls := bfs.NewScratch()
	bbag := bfs.NewScratch()
	bhyb := bfs.NewScratch()
	bnop := bfs.NewScratch()
	col := coloring.NewScratch()
	caff := coloring.NewScratch()
	chk := coloring.NewScratch()
	cmp := components.NewScratch()

	gates := []struct {
		name    string
		ceiling uint64 // mallocs per allocRuns runs
		run     func()
	}{
		{"bfs/block-team", parked, func() { bblk.BlockTeam(nil, g, 0, team, opts, 32, true) }},
		{"bfs/block-team-nop-recorder", parked, func() { bnop.BlockTeam(nopCtx, g, 0, team, opts, 32, true) }},
		{"bfs/block-tbb", parked, func() { btbb.BlockTBB(nil, g, 0, pool, sched.AutoPartitioner, 64, 32, true) }},
		{"bfs/block-tbb-affinity", parked, func() { baff.BlockTBB(nil, g, 0, pool, sched.AffinityPartitioner, 64, 32, true) }},
		{"bfs/tls-team", parked, func() { btls.TLSTeam(nil, g, 0, team, opts) }},
		{"bfs/bag-cilk", parked, func() { bbag.BagCilk(nil, g, 0, pool, 128) }},
		{"bfs/hybrid-team", parked, func() { bhyb.Hybrid(nil, g, 0, team, opts, bfs.HybridConfig{}) }},
		{"coloring/team", parked, func() { col.ColorTeam(nil, g, team, opts) }},
		{"coloring/cilk", parked, func() { col.ColorCilk(nil, g, pool, 64, coloring.CilkHolder) }},
		{"coloring/tbb", parked, func() { col.ColorTBB(nil, g, pool, sched.AutoPartitioner, 64) }},
		{"coloring/tbb-affinity", parked, func() { caff.ColorTBB(nil, g, pool, sched.AffinityPartitioner, 64) }},
		{"coloring/team-d2", parked, func() { col.ColorTeamD2(nil, g, team, opts) }},
		{"coloring/check", 0, func() {
			if err := chk.Check(nil, g, greedy, team, opts); err != nil {
				t.Fatal(err)
			}
		}},
		{"components/labelprop", 0, func() { cmp.LabelPropagation(nil, g, team, opts) }},
		{"components/pointerjump", 0, func() { cmp.PointerJumping(nil, g, team, opts) }},
		// The warm call computes the graph's minima; every later one compares.
		{"components/validate", 0, func() {
			if err := components.Validate(g, minima); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// Warm every gate before counting any: each path's buffers and free
	// lists reach their high-water marks, and the runtime's caches (the
	// sudogs a parked worker takes) fill for all of them.
	for _, gate := range gates {
		for i := 0; i < allocRuns; i++ {
			gate.run()
		}
	}
	for _, gate := range gates {
		got := fewestMallocs(gate.run)
		t.Logf("%s: %d mallocs in %d runs", gate.name, got, allocRuns)
		if got > gate.ceiling {
			t.Errorf("%s: %d mallocs in %d runs, ceiling %d — a hot-path allocation crept in",
				gate.name, got, allocRuns, gate.ceiling)
		}
	}
}
