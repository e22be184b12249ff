package sched

import "sync"

// task is one unit of work in the work-stealing pool: either a plain task
// (fn != nil, from Spawn or RunCtx) or a loop subrange [lo, hi) with its
// body, grain, and split discipline (kind). Every task a parallel-for puts
// on a deque — cilk_for's and all three partitioners' — is of the range
// form, so no loop builds a wrapper closure per split or per block: the body
// closure is created once per loop and shared by every subrange task. scope
// is the spawning scope, so Sync can account for completions.
type task struct {
	scope *scope
	fn    func(*Ctx)
	body  func(lo, hi int, c *Ctx)
	lo    int
	hi    int
	grain int // an affinity block's index instead (taskAffinity)
	kind  uint8
}

// Range-task kinds: how a subrange continues subdividing when executed.
const (
	taskFor          uint8 = iota // cilk_for and TBB simple partitioner: halve to the grain (Ctx.forSplit)
	taskAuto                      // TBB auto partitioner (autoRun)
	taskAutoRoot                  // TBB auto partitioner seeding (autoRoot)
	taskAffinity                  // one block of the TBB affinity partitioner (affinityBlock)
	taskAffinityRoot              // TBB affinity partitioner seeding (affinityRoot)
)

// deque is a double-ended work queue: the owning worker pushes and pops at
// the bottom (LIFO, preserving the sequential order Cilk relies on), thieves
// steal from the top (FIFO, taking the oldest — and in recursive
// decompositions the largest — work, "the deepest half of the stack" in the
// paper's description).
//
// The implementation is mutex-based: one lock per deque, taken by its owner
// and by the thieves that tour it, never one for the pool. A lock-free
// Chase-Lev deque would cut the constant factor of a push, a pop and a steal;
// bench/ has timed the pool-carried kernels since PR 11 (sched.pool.cilkfor_us,
// the pool variants' speedups), and that is the reading such a change would
// have to move.
type deque struct {
	mu    sync.Mutex
	items []task
}

// pushBottom adds t at the bottom: the owner's spawns and splits, and the
// blocks the affinity partitioner seeds on their home worker.
func (d *deque) pushBottom(t task) {
	d.mu.Lock()
	d.items = append(d.items, t)
	d.mu.Unlock()
}

// popBottom removes the most recently pushed task (owner only).
func (d *deque) popBottom() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return task{}, false
	}
	t := d.items[n-1]
	d.items[n-1] = task{} // release references
	d.items = d.items[:n-1]
	return t, true
}

// stealTop removes the oldest task (thieves). The remaining tasks shift
// down rather than reslicing forward, so the deque's backing array keeps
// its full capacity — reslicing with items[1:] would strand one slot per
// steal and force the owner's next pushes to reallocate, an allocation
// per steal in steady state.
func (d *deque) stealTop() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return task{}, false
	}
	t := d.items[0]
	copy(d.items, d.items[1:])
	d.items[n-1] = task{}
	d.items = d.items[:n-1]
	return t, true
}
