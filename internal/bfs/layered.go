package bfs

import "sync/atomic"

// Layered parallel BFS (Algorithm 7) over block-accessed queues, in the
// OpenMP (Team) and TBB (Pool + partitioner) flavours. The two variants per
// runtime differ in how a vertex is claimed for the next level:
//
//   - locked: test, then compare-and-swap on the level word; exactly-once
//     insertion;
//   - relaxed: plain check-then-swap (via atomics for Go memory-model
//     sanity); duplicates possible and benign (§III-C, Leiserson–Schardl).
//
// The implementations are the Scratch methods BlockTeam and BlockTBB
// (scratch.go); this file holds what they share.

// DefaultBlockSize is the queue block size that performed best in the
// paper's experiments ("we used as block size the one that yields the best
// performance in our implementation (32 in this case)", §V-D).
const DefaultBlockSize = 32

// DefaultBagGrain is the bag variant's cilk_for grain, the frontier
// vertices a leaf task expands, when the caller passes none; it matches the
// grainsize regime of the original code.
const DefaultBagGrain = 128

// firstUnvisited returns the index of the first vertex of nb whose level
// word reads Unvisited, or len(nb): the arc scan under every top-down body.
// It is a leaf, never inlined, because of what the scan costs when it shares
// a loop with the claim: the body (CAS, Writer.Push, append) outgrows the
// register allocator and the loop's index and bounds move to stack slots, a
// store-to-load forward on the path of all ~45 arcs of a vertex for the sake
// of the one that is claimed (DESIGN.md §2). The load is §IV-C's check before
// lock and the relaxed variants' check before swap: a caller claims nb[i]
// itself — compare-and-swap (exactly once) or atomic swap ("whichever wins
// the race leads to the same values in memory") — and calls again on nb[i+1:].
//
//go:noinline
func firstUnvisited(nb, levels []int32) int {
	for i, u := range nb {
		if atomic.LoadInt32(&levels[u]) == Unvisited {
			return i
		}
	}
	return len(nb)
}
