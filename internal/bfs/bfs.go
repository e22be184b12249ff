// Package bfs implements the paper's breadth-first-search kernels: a
// sequential twin, and the layered parallel BFS
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
// sweep, whose scan breaks at the first hit, keeps its loop inline.
//
// Sequential is the twin the others are measured against, and it is the
// fastest sequential search here, not Algorithm 6 as read: the hybrid's
// direction rule over one FIFO queue, as GBBS measures its speedups over the
// fastest sequential code (PAPERS.md). Answers are checked against
// graph.Levels, which is Algorithm 6.
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

// Sequential runs the direction-optimizing BFS from source on one goroutine.
func Sequential(g *graph.Graph, source int32) Result {
	return sequential(g, source).Result
}

// sequential is Sequential with its direction counts. Its queue holds the
// levels in order, each level the slice queue[lo:hi] between two boundaries,
// so a level's width is the distance between them. Before a level runs the
// frontier's arcs are summed over its slice, and the direction rule Hybrid
// uses picks the level's direction: top-down expands the slice, writing each
// claim at the queue's tail; bottom-up sweeps the unvisited vertices in id
// order and writes there each one that has a neighbour at level lv-1. The
// tail is an index into a queue of n words, not an append, whose length and
// capacity cost the top-down loop registers (EXPERIMENTS.md has the probe).
func sequential(g *graph.Graph, source int32) HybridResult {
	n := g.NumVertices()
	levels := make([]int32, n)
	fillUnvisited(levels)
	res := HybridResult{Result: Result{Levels: levels}}
	if n == 0 {
		return res
	}
	xadj, adj := g.Xadj(), g.AdjRaw()
	queue := make([]int32, n)
	queue[0] = source
	tail := 1
	levels[source] = 0
	widths := make([]int64, 1, min(n+1, widthsCap))
	widths[0] = 1
	rule := newDirection(g.NumArcs(), HybridConfig{})
	for lo, lv := 0, int32(1); lo < tail; lv++ {
		hi := tail
		var edges int64
		for _, v := range queue[lo:hi] {
			edges += xadj[v+1] - xadj[v]
		}
		if rule.next(hi-lo, edges) {
			res.BottomUpLevels++
			for v, l := range levels {
				if l != Unvisited {
					continue
				}
				for _, u := range adj[xadj[v]:xadj[v+1]] {
					if levels[u] == lv-1 {
						levels[v] = lv
						queue[tail] = int32(v)
						tail++
						break
					}
				}
			}
		} else {
			res.TopDownLevels++
			for _, v := range queue[lo:hi] {
				for _, u := range adj[xadj[v]:xadj[v+1]] {
					if levels[u] == Unvisited {
						levels[u] = lv
						queue[tail] = u
						tail++
					}
				}
			}
		}
		if tail > hi {
			widths = append(widths, int64(tail-hi))
		}
		lo = hi
	}
	res.Processed = int64(tail)
	res.Widths = widths
	res.NumLevels = len(widths)
	return res
}

// fillUnvisited sets every level to Unvisited. It doubles the filled prefix
// with copy, a memmove, where a store loop writes one word an iteration.
func fillUnvisited(levels []int32) {
	if len(levels) > 0 {
		levels[0] = Unvisited
		for i := 1; i < len(levels); i *= 2 {
			copy(levels[i:], levels[:i])
		}
	}
}

// Validate checks that levels is a correct BFS level assignment from source
// on g, by comparing against the oracle, graph.Levels.
func Validate(g *graph.Graph, source int32, levels []int32) error {
	if len(levels) != g.NumVertices() {
		return fmt.Errorf("bfs: %d levels for %d vertices", len(levels), g.NumVertices())
	}
	ref, _ := g.Levels(source)
	for v, want := range ref {
		if levels[v] != want {
			return fmt.Errorf("bfs: vertex %d at level %d, want %d", v, levels[v], want)
		}
	}
	return nil
}
