// Package bfs implements the paper's breadth-first-search kernels: the
// sequential FIFO algorithm (Algorithm 6), and the layered parallel BFS
// (Algorithm 7) in the five data-structure/runtime variants §IV-C compares:
//
//   - OpenMP-Block and OpenMP-Block-relaxed: the paper's novel
//     block-accessed shared queue on an OpenMP-style Team;
//   - TBB-Block and TBB-Block-relaxed: the same queue on TBB-style
//     partitioned ranges;
//   - CilkPlus-Bag-relaxed: the Leiserson–Schardl bag on the work-stealing
//     pool, kept as per-worker queues concatenated at the level barrier and
//     walked by a cilk_for with the bag's grain;
//   - OpenMP-TLS: SNAP's per-thread local queues with per-vertex locked
//     insertion (plus the paper's check-before-lock improvement).
//
// The variants are written as two level loops on a Scratch, both run
// through its one sched.Loop, which each entry point binds to its runtime:
// block (scratch.go) over the block-accessed queue, and flat (hybrid.go)
// over a flat frontier array with per-worker queues — OpenMP-TLS with
// locked claims, the bag with relaxed ones on cilk_for, and under a
// direction rule the direction-optimizing Hybrid.
//
// "Locked" variants claim a vertex with a compare-and-swap on its level, so
// each vertex enters the next-level structure exactly once. "Relaxed"
// variants use the Leiserson–Schardl observation that the race is benign:
// they check-then-store without synchronisation, accepting occasional
// duplicate queue entries in exchange for no atomics on the hot path. In Go
// the unsynchronised accesses are expressed with atomic loads and swaps so
// the benign race is well-defined; duplicates still occur exactly as in the
// paper, and the Result records how many. The swap (one XCHG on amd64, as
// an atomic store is) also returns the word it replaced, and the one swap
// that read Unvisited counts the vertex in its level's width.
//
// Under every top-down body — both claims of the block queue and of the
// flat loop — the arc scan is one leaf, firstUnvisited (layered.go):
// it walks a neighbour list until a level word reads Unvisited, and the body
// claims and pushes on that one arc in ~45 and calls again on the rest. Inside
// a loop that also holds a CAS, a Push and an append the scan ran out of
// registers (DESIGN.md §2 has the disassembly and the numbers). The bottom-up
// sweep, whose scan breaks at the first hit, keeps its loop inline, and
// Sequential is the twin the others are measured against: Algorithm 6 as read.
package bfs

import (
	"fmt"

	"micgraph/internal/graph"
)

// Unvisited is the level value of vertices not reached by the search.
const Unvisited int32 = -1

// Result reports a BFS run.
type Result struct {
	Levels    []int32 // per-vertex level; Unvisited (-1) if unreachable
	NumLevels int     // number of levels (eccentricity of source + 1; 0 on an empty graph)
	// Widths holds the vertices of each level (the x_l profile of §III-C),
	// NumLevels entries summing to the vertices reached. The parallel
	// variants count them where they claim vertices, Sequential from its
	// queue's level boundaries: no run walks the levels to find them.
	Widths     []int64
	Processed  int64 // queue entries processed, including duplicates
	Duplicates int64 // redundant entries processed by relaxed variants
}

// widthsCap is the number of levels a run's widths have room for before they
// grow: deeper than every suite graph at every scale (msdoor@1 has at most
// 178), so Widths costs a fresh run one allocation.
const widthsCap = 256

// Sequential runs the textbook FIFO BFS (Algorithm 6) from source.
func Sequential(g *graph.Graph, source int32) Result {
	n := g.NumVertices()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = Unvisited
	}
	res := Result{Levels: levels}
	if n == 0 {
		return res
	}
	queue := make([]int32, 0, n)
	// The queue holds the levels in order, so starts[l], the queue index of
	// level l's first vertex, is taken when that vertex is pushed, and a
	// level's width is the distance to the next level's start.
	starts := make([]int64, 1, min(n+1, widthsCap))
	levels[source] = 0
	queue = append(queue, source)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		lv := levels[v]
		for _, w := range g.Adj(v) {
			if levels[w] == Unvisited {
				levels[w] = lv + 1
				if int(lv)+1 == len(starts) {
					starts = append(starts, int64(len(queue)))
				}
				queue = append(queue, w)
			}
		}
	}
	res.Processed = int64(len(queue))
	starts = append(starts, res.Processed)
	for l := range len(starts) - 1 {
		starts[l] = starts[l+1] - starts[l]
	}
	res.Widths = starts[:len(starts)-1]
	res.NumLevels = len(res.Widths)
	return res
}

// Validate checks that levels is a correct BFS level assignment from source
// on g, by comparing against the sequential reference.
func Validate(g *graph.Graph, source int32, levels []int32) error {
	if len(levels) != g.NumVertices() {
		return fmt.Errorf("bfs: %d levels for %d vertices", len(levels), g.NumVertices())
	}
	ref := Sequential(g, source)
	for v, want := range ref.Levels {
		if levels[v] != want {
			return fmt.Errorf("bfs: vertex %d at level %d, want %d", v, levels[v], want)
		}
	}
	return nil
}
