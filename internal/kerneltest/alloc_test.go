package kerneltest

import (
	"context"
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/gen"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// TestKernelAllocCeilings pins the steady-state allocation count of every
// pooled kernel hot path. Each kernel runs once to warm its Scratch (first
// run grows buffers), then testing.AllocsPerRun measures the steady state.
// Ceilings are exact: every path runs at zero allocations per kernel
// invocation.
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

	// nopCtx carries an explicit Nop recorder: the uninstrumented
	// telemetry path must not assemble samples or read clocks, so it has
	// to hold the same zero-alloc ceiling as the nil-context path.
	nopCtx := telemetry.WithRecorder(context.Background(), telemetry.Nop)

	bblk := bfs.NewScratch()
	btbb := bfs.NewScratch()
	btls := bfs.NewScratch()
	bbag := bfs.NewScratch()
	bhyb := bfs.NewScratch()
	bnop := bfs.NewScratch()
	col := coloring.NewScratch()
	cmp := components.NewScratch()

	gates := []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"bfs/block-team", 0, func() { bblk.BlockTeam(nil, g, 0, team, opts, 32, true) }},
		{"bfs/block-team-nop-recorder", 0, func() { bnop.BlockTeam(nopCtx, g, 0, team, opts, 32, true) }},
		{"bfs/block-tbb", 0, func() { btbb.BlockTBB(nil, g, 0, pool, sched.AutoPartitioner, 64, 32, true) }},
		{"bfs/tls-team", 0, func() { btls.TLSTeam(nil, g, 0, team, opts) }},
		{"bfs/bag-cilk", 0, func() { bbag.BagCilk(nil, g, 0, pool, 128) }},
		{"bfs/hybrid-team", 0, func() { bhyb.Hybrid(nil, g, 0, team, opts, bfs.HybridConfig{}) }},
		{"coloring/team", 0, func() { col.ColorTeam(nil, g, team, opts) }},
		{"coloring/cilk", 0, func() { col.ColorCilk(nil, g, pool, 64, coloring.CilkHolder) }},
		{"coloring/tbb", 0, func() { col.ColorTBB(nil, g, pool, sched.AutoPartitioner, 64) }},
		{"coloring/team-d2", 0, func() { col.ColorTeamD2(nil, g, team, opts) }},
		{"components/labelprop", 0, func() { cmp.LabelPropagation(nil, g, team, opts) }},
		{"components/pointerjump", 0, func() { cmp.PointerJumping(nil, g, team, opts) }},
	}
	for _, gate := range gates {
		gate.run() // warm: first run on a graph shape grows the scratch buffers
		got := testing.AllocsPerRun(10, gate.run)
		if got > gate.ceiling {
			t.Errorf("%s: measured %.1f allocs/run, ceiling %.0f — a hot-path allocation crept in",
				gate.name, got, gate.ceiling)
		}
	}
}
