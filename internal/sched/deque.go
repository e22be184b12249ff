package sched

import "sync"

// deque is a double-ended queue of task words: the owning worker pushes and
// pops at the bottom (LIFO, preserving the sequential order Cilk relies on),
// thieves steal from the top (FIFO, taking the oldest — and in recursive
// decompositions the largest — work, "the deepest half of the stack" in the
// paper's description).
//
// A task is one uint64 (runState.word): a subrange of the current run as two
// offsets from its start, or an affinity block's index. Everything else a task
// needs — the body, the grain, how it splits — is the run's, so every task a
// parallel-for puts on a deque, cilk_for's and all three partitioners', is one
// word and no loop builds a closure per split or per block.
//
// The implementation is mutex-based: one lock per deque, taken by its owner
// and by the thieves that tour it, never one for the pool. A lock-free
// Chase-Lev deque would cut the constant factor of a push, a pop and a steal;
// bench/ times the pool-carried kernels (sched.pool.cilkfor_us, the pool
// variants' speedups), and that is the reading such a change would have to
// move. A slot of one word is what makes that change possible: a thief's read
// of a slot cannot be torn.
type deque struct {
	mu    sync.Mutex
	items []uint64
}

// pushBottom adds t at the bottom: the owner's splits, and the blocks the
// affinity partitioner seeds on their home worker.
func (d *deque) pushBottom(t uint64) {
	d.mu.Lock()
	d.items = append(d.items, t)
	d.mu.Unlock()
}

// popBottom removes the most recently pushed task (owner only).
func (d *deque) popBottom() (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return 0, false
	}
	t := d.items[n-1]
	d.items = d.items[:n-1]
	return t, true
}

// stealTop removes the oldest task (thieves). The remaining tasks shift
// down rather than reslicing forward, so the deque's backing array keeps
// its full capacity — reslicing with items[1:] would strand one slot per
// steal and force the owner's next pushes to reallocate, an allocation
// per steal in steady state.
func (d *deque) stealTop() (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return 0, false
	}
	t := d.items[0]
	copy(d.items, d.items[1:])
	d.items = d.items[:n-1]
	return t, true
}
