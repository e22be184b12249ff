package coloring

import (
	"sync/atomic"
	"time"

	"micgraph/internal/graph"
	"micgraph/internal/telemetry"
)

// This file holds what the iterative parallel speculative coloring
// (Algorithms 2–4) needs besides its round loop: rounds of tentative
// parallel coloring followed by parallel conflict detection, until no
// conflicts remain. The round loop is written once, Scratch.color
// (scratch.go); the three variants are bindings of its sched.Loop to the
// runtime carrying the two parallel loops, mirroring the paper's three
// implementations:
//
//   - ColorTeam:  OpenMP parallel for under a scheduling policy (§IV-A1);
//   - ColorCilk:  cilk_for with holder/worker-id localFC and a reducer_max
//     (§IV-A2);
//   - ColorTBB:   tbb::parallel_for over a blocked range with a partitioner,
//     enumerable_thread_specific localFC and a combinable max (§IV-A3).
//
// The per-worker state those hyperobjects provide — localFC arrays and
// color maxima — is the Scratch's per-worker arrays.

// localFC is one worker's forbidden-color scratch array: fc[c] == v marks
// color c forbidden for vertex v. Allocated once per worker, size Δ+2.
type localFC []int32

// appendConflict reserves a slot in the shared conflict array with an atomic
// fetch-and-add, the exact structure the paper uses ("we use an atomic fetch
// and add to obtain a unique index in the Conflict array").
func appendConflict(next []int32, count *atomic.Int64, v int32) {
	idx := count.Add(1) - 1
	next[idx] = v
}

// roundSample builds the PhaseSample for one completed speculative-coloring
// round: visit held the vertices (re)colored this round, whose adjacency
// edges were examined twice (tentative + conflict detection), and conflicts
// of them were queued for the next round. Telemetry-only path; time comes
// from rec's clock so instrumented runs can be made deterministic.
func roundSample(rec telemetry.Recorder, g *graph.Graph, round int, visit []int32, conflicts int, start time.Time) telemetry.PhaseSample {
	dur := telemetry.Since(rec, start)
	var edges int64
	for _, v := range visit {
		edges += int64(g.Degree(v))
	}
	return telemetry.PhaseSample{
		Kernel: "coloring", Phase: "round", Index: round,
		Items: int64(len(visit)), Edges: edges, Claims: int64(conflicts),
		Duration: dur,
	}
}

// CilkVariant names how the paper's Cilk implementation obtains its localFC
// scratch array (§IV-A2: by worker id, or through a holder — the one the
// paper reports). Both read the Scratch's per-worker arrays here, so the
// type carries no behaviour; it and CilkHolder stay only because
// bench/ladder.go compiles against ColorCilk's signature.
type CilkVariant int

// CilkHolder is the holder variant.
const CilkHolder CilkVariant = 1
