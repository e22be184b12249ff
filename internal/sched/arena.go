package sched

// Arena is a per-worker free list of reusable int32 buffers — the
// sync.Pool-style scratch arena behind the zero-alloc kernel hot paths.
// Unlike sync.Pool it is keyed by worker id, so a buffer
// is always recycled on the worker that released it: no cross-worker
// synchronisation on the hot path and no GC-triggered eviction, which is
// what lets testing.AllocsPerRun pin the steady state at zero.
//
// Get and Put for one worker id must only be called from that worker (or,
// between parallel regions, from the coordinating goroutine); distinct
// worker ids never contend.
type Arena struct {
	shards []arenaShard
}

// arenaShard pads per-worker free lists so neighbouring workers' recycling
// does not share a cache line — the same reason the paper stores localFC
// arrays "contiguously in memory (but without sharing a cache line)".
type arenaShard struct {
	free [][]int32
	_    [40]byte
}

// Get returns a zero-length buffer with capacity >= capHint, recycled from
// worker w's free list when one is available. The buffer is NOT zeroed
// beyond its length; callers append or overwrite.
func (a *Arena) Get(w, capHint int) []int32 {
	s := &a.shards[w]
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		if cap(b) >= capHint {
			return b[:0]
		}
		// Too small for this request: let it go and allocate at size.
	}
	return make([]int32, 0, capHint)
}

// Put returns b to worker w's free list for reuse. Zero-capacity buffers
// are dropped.
func (a *Arena) Put(w int, b []int32) {
	if cap(b) == 0 {
		return
	}
	s := &a.shards[w]
	s.free = append(s.free, b[:0])
}

// Arena returns the engine's resident scratch arena, sized to its workers.
func (p *Pool) Arena() *Arena { return &p.arena }
