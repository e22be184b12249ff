package micgraph

import (
	"context"
	"testing"

	"micgraph/internal/kerneltest"
	"micgraph/internal/mic"
	"micgraph/internal/telemetry"
)

// TestBenchAllocCeilings holds the allocations of the benchmarks' operations
// to a ceiling each. testing.AllocsPerRun runs at GOMAXPROCS 1, where the
// experiment engine starts no goroutine, so the counts do not depend on the
// machine's processors; a figure's count still moves by 2 or 4 between runs.
// For the figures this is what keeps a simulated sweep cell O(chunks): an
// allocation per chunk moves them by 10× or more, one per cell by 10 % or more.
// A ceiling is the count measured when it was set plus max(2, 10 %), rounded
// down, and never above the ceiling it replaced; an On record of telemetry
// has its Off twin's ceiling, so instrumentation costs no allocation. The
// pooled kernels (TestKernelAllocCeilings) and SimulateColoring121Threads
// (TestSimulateAllocsPerCall) are held more tightly elsewhere.
func TestBenchAllocCeilings(t *testing.T) {
	if kerneltest.RaceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	for _, rec := range []struct {
		name    string // the benchmark's, without "Benchmark"
		newOp   func(testing.TB) func()
		ceiling float64
	}{
		{"Table1", experiment("table1"), 19},
		{"Fig1aColoringOpenMP", experiment("fig1a"), 981},
		{"Fig1bColoringCilk", experiment("fig1b"), 872},
		{"Fig1cColoringTBB", experiment("fig1c"), 982},
		{"Fig2ColoringShuffled", experiment("fig2"), 981},
		{"Fig3aIrregularOpenMP", experiment("fig3a"), 645},
		{"Fig3bIrregularCilk", experiment("fig3b"), 645},
		{"Fig3cIrregularTBB", experiment("fig3c"), 645},
		{"Fig4aBFSPwtk", experiment("fig4a"), 138},
		{"Fig4bBFSInline1", experiment("fig4b"), 173},
		{"Fig4cBFSAllMIC", experiment("fig4c"), 842},
		{"Fig4dBFSHost", experiment("fig4d"), 1522},
		{"AblationBlockSize", experiment("abl-blocksize"), 2162},
		{"TraceBuildBFS", traceBuildBFS, 42},
		{"KernelSeqGreedyColoring", seqGreedyColoring, 4},
		{"KernelBFSSequential", seqBFS, 5},
		{"KernelIrregularIter1", irregularOp(1), 4},
		{"KernelIrregularIter10", irregularOp(10), 4},
		{"KernelPageRank", pageRank, 50},
		{"TelemetryCountersOff", teamLoopOp(nil), 14},
		{"TelemetryCountersOn", teamLoopOp(telemetry.NewCounters(4)), 14},
		{"TelemetryRecorderOff", recordedBFSOp(context.Background()), 18},
		{"TelemetryRecorderOn", recordedBFSOp(telemetry.WithRecorder(context.Background(), telemetry.NewMemRecorder())), 18},
		{"TelemetrySimulateOff", simulateOp(nil, nil), 3},
		{"TelemetrySimulateOn", simulateOp(telemetry.NewTimeline(0), &mic.SimStats{}), 3},
	} {
		t.Run(rec.name, func(t *testing.T) {
			got := testing.AllocsPerRun(1, rec.newOp(t))
			t.Logf("%.0f allocs/op, ceiling %.0f", got, rec.ceiling)
			if got > rec.ceiling {
				t.Errorf("Benchmark%s: %.0f allocs/op, ceiling %.0f — an allocation crept in", rec.name, got, rec.ceiling)
			}
		})
	}
}
