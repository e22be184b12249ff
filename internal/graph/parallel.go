package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A construction of up to edgeChunk edges (or arcs) runs on the caller alone,
// so that the small graphs the tests build by the thousand never start a
// goroutine; above it, Build gives every worker at least edgeChunk edges to
// count and scatter. Permute claims vertices (an adjacency list each)
// vertexChunk at a time, so that a hub's list does not leave the other
// workers idle behind it.
const (
	edgeChunk   = 1 << 14
	vertexChunk = 1 << 8
)

// workers is how many goroutines a construction of size edges (or arcs) runs
// on: one up to edgeChunk, GOMAXPROCS above.
func workers(size int) int {
	if size <= edgeChunk {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// parallel calls body(w) for every w in [0, max(p, 1)), w = 0 on the caller
// and the rest on goroutines of their own, and returns when all have. It is
// not a sched.Team because graph sits below sched, and because a build is
// milliseconds of work around a handful of these joins.
func parallel(p int, body func(w int)) {
	if p <= 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w)
		}()
	}
	body(0)
	wg.Wait()
}

// forChunks calls body(lo, hi) on consecutive chunks covering [0, n) from
// workers(size) goroutines at most, which claim chunks off a shared cursor
// until none is left; with one worker or one chunk it is a single call on the
// caller.
func forChunks(size, n, chunk int, body func(lo, hi int)) {
	p := min(workers(size), (n+chunk-1)/chunk)
	if p <= 1 {
		body(0, n)
		return
	}
	var cursor atomic.Int64
	parallel(p, func(int) {
		for {
			lo := int(cursor.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			body(lo, min(lo+chunk, n))
		}
	})
}
