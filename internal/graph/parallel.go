package graph

import (
	"runtime"
	"sync"
)

// A construction of up to edgeChunk edges (or arcs) runs on the caller alone,
// so that the small graphs the tests build by the thousand never start a
// goroutine; above it, Build and Permute give every worker at least edgeChunk
// edges (arcs) to count and scatter.
const edgeChunk = 1 << 14

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
