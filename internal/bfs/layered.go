package bfs

import (
	"context"
	"sync/atomic"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// Layered parallel BFS (Algorithm 7) over block-accessed queues, in the
// OpenMP (Team) and TBB (Pool + partitioner) flavours. The two variants per
// runtime differ in how a vertex is claimed for the next level:
//
//   - locked: test, then compare-and-swap on the level word; exactly-once
//     insertion;
//   - relaxed: plain check-then-store (via atomics for Go memory-model
//     sanity); duplicates possible and benign (§III-C, Leiserson–Schardl).
//
// The implementations live on Scratch (scratch.go), which owns every
// reusable buffer; the entry points here run on a throwaway Scratch and so
// keep their historical allocate-per-call semantics.

// DefaultBlockSize is the queue block size that performed best in the
// paper's experiments ("we used as block size the one that yields the best
// performance in our implementation (32 in this case)", §V-D).
const DefaultBlockSize = 32

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

// BlockTeam runs layered BFS with the block-accessed queue on an
// OpenMP-style Team (the paper's OpenMP-Block / OpenMP-Block-relaxed).
// A body panic (e.g. an injected fault) propagates as a *sched.PanicError;
// use BlockTeamCtx for errors and cancellation.
func BlockTeam(g *graph.Graph, source int32, team *sched.Team, opts sched.ForOptions, blockSize int, relaxed bool) Result {
	res, err := BlockTeamCtx(nil, g, source, team, opts, blockSize, relaxed)
	if err != nil {
		panic(err)
	}
	return res
}

// BlockTeamCtx is BlockTeam with cooperative cancellation: ctx (which may
// be nil) is polled at chunk-claim boundaries within a level and between
// levels. On cancellation or a contained panic it returns the partial
// traversal state alongside the error.
func BlockTeamCtx(ctx context.Context, g *graph.Graph, source int32, team *sched.Team, opts sched.ForOptions, blockSize int, relaxed bool) (Result, error) {
	return NewScratch().BlockTeam(ctx, g, source, team, opts, blockSize, relaxed)
}

// BlockTBB runs layered BFS with the block-accessed queue on TBB-style
// partitioned ranges (the paper's TBB-Block / TBB-Block-relaxed; the paper
// reports the simple partitioner). Panics propagate; use BlockTBBCtx for
// errors and cancellation.
func BlockTBB(g *graph.Graph, source int32, pool *sched.Pool, part sched.Partitioner, grain, blockSize int, relaxed bool) Result {
	res, err := BlockTBBCtx(nil, g, source, pool, part, grain, blockSize, relaxed)
	if err != nil {
		panic(err)
	}
	return res
}

// BlockTBBCtx is BlockTBB with cooperative cancellation at range-split
// boundaries and between levels; on failure it returns the partial
// traversal state alongside the error.
func BlockTBBCtx(ctx context.Context, g *graph.Graph, source int32, pool *sched.Pool, part sched.Partitioner, grain, blockSize int, relaxed bool) (Result, error) {
	return NewScratch().BlockTBB(ctx, g, source, pool, part, grain, blockSize, relaxed)
}
