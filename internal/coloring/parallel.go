package coloring

import (
	"sync/atomic"
	"time"

	"micgraph/internal/graph"
	"micgraph/internal/telemetry"
)

// This file holds what the iterative parallel speculative coloring
// (Algorithms 2–4) needs besides its round loop. The round loop is written
// once, Scratch.color (scratch.go); the three variants are bindings of its
// sched.Loop to the runtime carrying a round's parallel loop, mirroring the
// paper's three implementations:
//
//   - ColorTeam:  OpenMP parallel for under a scheduling policy (§IV-A1);
//   - ColorCilk:  cilk_for with holder/worker-id localFC (§IV-A2);
//   - ColorTBB:   tbb::parallel_for over a blocked range with a partitioner
//     and enumerable_thread_specific localFC (§IV-A3).
//
// ColorTeamD2 (distance2.go) is ColorTeam's binding with the round's body
// walking the neighbors' neighbors too.
//
// The per-worker state those hyperobjects provide — the localFC arrays — is
// the Scratch's per-worker state (colorWorker).
//
// The paper's round is two loops and two barriers: tentative coloring
// (Algorithm 3), then conflict detection (Algorithm 4), which walks every arc
// a second time from memory. Here a round is one loop whose body, per vertex
// of the work list, gathers the neighbors' colors, takes the first fit,
// publishes it and verifies — re-reads the same neighbors and queues the
// vertex for the next round if one holds its color (speculate, scratch.go).
// No clash survives a round: Go's atomics are sequentially consistent, so a
// round's publishing stores fall into one order every worker agrees on; of
// two adjacent vertices publishing the same color, the later one's verify
// follows both stores, and a vertex is stored once per round, so it reads
// the clash and queues itself; a vertex off the list is not written, so its
// neighbors gather its final color. Both ends may queue themselves, in
// lockstep round after round, so a round that did not shrink its list is
// followed by one on the caller alone (Scratch.color). Detecting at the
// start of the next round instead (Rokos, Gorman & Kelly) saves the barrier
// but still reads every arc twice from memory (DESIGN.md §2).
//
// Round one does not re-read the arcs inside a worker's run. Its work list
// is the identity, so a chunk [lo, hi) of it is the vertex range [lo, hi),
// which one worker colors in order — a pool leaf runs on one worker like a
// Team chunk — storing each vertex once. A worker's run is the chunks it
// colored back to back, each starting where the one before ended, or ending
// where it began (a pool's leaves run in descending order): [from, end),
// reset every round and extended at every round-one chunk (colorWorker.
// extend). Every vertex of the run outside the current chunk was colored by
// this worker, once, before the current chunk began, so of two adjacent
// vertices in the run the later one's gather follows the earlier one's only
// store of the round and takes another color. A run breaks exactly when the
// chunk next to it went to another worker, so no scheduler hook is needed.
// An arc that leaves the run has its other end in another worker's chunk,
// or in one of this worker's other runs, and that end's verify did not skip
// it either: both ends re-read it and the argument above holds for it
// unchanged. Adjacency lists are sorted, so those arcs are a prefix below
// from and a suffix from end (clashOutside, scratch.go). A chunk verifies
// against its run when its first vertex has a neighbor later in the chunk
// (localChunk), a property of the input's order that shuffled graphs lack;
// every other chunk, every later round — whose lists are not ranges — and
// the inline round verify every arc.
//
// The first fit is a mask's lowest clear bit while every neighbor color is
// below 64 and one of 1 to 63 is free (maskFit); a worker that meets any
// other vertex gathers into its forbidden-color array instead, and stays on
// the array for the rest of its round (arrayFit). Both give the same color,
// since first fit depends only on the set of neighbor colors.
//
// The simulator keeps the paper's two-phase round (mic.ColoringTrace): it
// models the published algorithm, and the figures are computed from it.

// localFC is one worker's forbidden-color scratch array, size Δ+2 (at distance
// 2 min(Δ², n−1)+3, see speculateD2): fc[c] == k marks color c forbidden for
// the run's k-th vertex visit. The visit, not the
// vertex: a vertex colored again by the same worker must not meet its earlier
// marks, which on a clique push the first fit past Δ+1 and off the array.
// (int32 visit numbers wrap, but stay distinct for 2³² visits.)
type localFC []int32

// appendConflict reserves a slot in the next round's work list with an atomic
// fetch-and-add, the exact structure the paper uses ("we use an atomic fetch
// and add to obtain a unique index in the Conflict array").
func appendConflict(next []int32, count *atomic.Int64, v int32) {
	idx := count.Add(1) - 1
	next[idx] = v
}

// roundSample builds the PhaseSample for one completed speculative-coloring
// round: visit held the vertices (re)colored this round — round one's is the
// identity, every vertex, and is not written — Edges is the sum of their
// degrees, and conflicts of them were queued for the next round.
// Telemetry-only path; time comes from rec's clock so instrumented runs can
// be made deterministic.
func roundSample(rec telemetry.Recorder, g *graph.Graph, round int, visit []int32, conflicts int, start time.Time) telemetry.PhaseSample {
	dur := telemetry.Since(rec, start)
	edges := g.NumArcs()
	if round > 0 {
		edges = 0
		for _, v := range visit {
			edges += int64(g.Degree(v))
		}
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
