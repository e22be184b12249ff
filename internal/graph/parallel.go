package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Edges are claimed edgeChunk at a time, vertices (an adjacency list each)
// vertexChunk at a time, so that a hub's list does not leave the other
// workers idle behind it, and cliques (size² arcs each) cliqueChunk at a time.
const (
	edgeChunk   = 1 << 14
	vertexChunk = 1 << 8
	cliqueChunk = 1 << 4
)

// forChunks calls body(lo, hi) on consecutive chunks covering [0, n) from
// GOMAXPROCS goroutines, the caller one of them, which claim chunks off a
// shared cursor until none is left. size is the length of the whole
// construction in edges (or arcs): up to one edgeChunk, as with one chunk or
// one processor, the loop is a single call on the caller, so the small graphs
// the tests build by the thousand never start a goroutine. It is not a
// sched.Team because graph sits below sched, and because a build is
// milliseconds of work around four of these joins.
func forChunks(size, n, chunk int, body func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), (n+chunk-1)/chunk)
	if size <= edgeChunk || workers <= 1 {
		body(0, n)
		return
	}
	var cursor atomic.Int64
	claim := func() {
		for {
			lo := int(cursor.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			body(lo, min(lo+chunk, n))
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}
