package bfs

import "sync/atomic"

// Layered parallel BFS (Algorithm 7) over block-accessed queues, in the
// OpenMP (Team) and TBB (Pool + partitioner) flavours. The two variants per
// runtime differ in how a vertex is claimed for the next level:
//
//   - locked: test, then compare-and-swap on the level word; exactly-once
//     insertion;
//   - relaxed: plain check-then-store (via atomics for Go memory-model
//     sanity); duplicates possible and benign (§III-C, Leiserson–Schardl).
//
// The implementations are the Scratch methods BlockTeam and BlockTBB
// (scratch.go); this file holds what they share.

// DefaultBlockSize is the queue block size that performed best in the
// paper's experiments ("we used as block size the one that yields the best
// performance in our implementation (32 in this case)", §V-D).
const DefaultBlockSize = 32

// DefaultBagGrain is the bag variant's chunk capacity when the caller
// passes none; it matches the grainsize regime of the original code.
const DefaultBagGrain = 128

// claimLocked claims w for level lv exactly once. It checks before locking
// (the paper's §IV-C improvement): most arcs lead to an already-visited
// vertex, and a plain load is far cheaper than a failed locked CAS. The
// CAS alone decides who wins.
func claimLocked(levels []int32, w int32, lv int32) bool {
	return atomic.LoadInt32(&levels[w]) == Unvisited &&
		atomic.CompareAndSwapInt32(&levels[w], Unvisited, lv)
}

// claimRelaxed claims w for level lv without synchronisation between check
// and store; concurrent claimers may all succeed ("whichever wins the race
// leads to the same values in memory").
func claimRelaxed(levels []int32, w int32, lv int32) bool {
	if atomic.LoadInt32(&levels[w]) == Unvisited {
		atomic.StoreInt32(&levels[w], lv)
		return true
	}
	return false
}
