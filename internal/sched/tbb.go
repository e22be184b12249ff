package sched

import (
	"context"
	"fmt"

	"micgraph/internal/telemetry"
)

// TBB-style blocked ranges and partitioners, executed on the work-stealing
// Pool. A Range plays blocked_range<int>: an iteration interval with a grain
// size under which it is never split. The partitioner decides when to split:
//
//   - SimplePartitioner splits recursively all the way down to the grain
//     ("similar to the dynamic scheduling policy of OpenMP", §II-C) — the
//     split of cilk_for, and run by the same code (forSplit);
//   - AutoPartitioner creates ~workers subranges and splits further only
//     when a subrange gets stolen;
//   - AffinityPartitioner remembers which worker ran each block in the
//     previous execution of the same loop and replays that assignment to
//     maximise cache reuse.
//
// All three run as tasks of runTask: the root seeds the range on the caller,
// and every piece it or a split puts on a deque is one task word read against
// the run's body, grain and kind, so no partitioner builds a closure per
// piece. A task's state — the range it kept, whether it was stolen — is its
// worker's, and its leaf calls the run's (lo, hi, w) body with the worker's
// id. Auto and affinity seed at most ceil(size/grain) pieces — never finer
// than the simple partitioner's leaves of the same range — capped at W and 4W.
// runKind is the one map from a partitioner to a run kind; Loop.OnTBB and
// ParallelForRangeCtx both go through it.

// Range is an iteration interval [Lo, Hi) with a minimum split size.
type Range struct {
	Lo, Hi int
	Grain  int // never split below this many iterations; <= 0 means 1
}

// Size returns the iteration count.
func (r Range) Size() int { return r.Hi - r.Lo }

func (r Range) grain() int {
	if r.Grain <= 0 {
		return 1
	}
	return r.Grain
}

// Partitioner selects a TBB range-partitioning policy.
type Partitioner int

const (
	// SimplePartitioner recursively divides the range until the grain size
	// is reached.
	SimplePartitioner Partitioner = iota
	// AutoPartitioner uses work-stealing events to decide whether to split.
	AutoPartitioner
	// AffinityPartitioner replays the block→worker assignment of the
	// previous run of the same loop (see AffinityState).
	AffinityPartitioner
)

// String returns the TBB name of the partitioner.
func (p Partitioner) String() string {
	switch p {
	case SimplePartitioner:
		return "simple"
	case AutoPartitioner:
		return "auto"
	case AffinityPartitioner:
		return "affinity"
	}
	return fmt.Sprintf("Partitioner(%d)", int(p))
}

// runKind maps a partitioner to the run kind the task discipline splits by.
func runKind(part Partitioner) uint8 {
	switch part {
	case SimplePartitioner:
		return taskFor
	case AutoPartitioner:
		return taskAuto
	case AffinityPartitioner:
		return taskAffinity
	}
	panic(fmt.Sprintf("sched: unknown partitioner %d", part))
}

// ParallelForRangeCtx executes body over r on pool using the given
// partitioner, returning the first body panic as a *PanicError and polling
// ctx (which may be nil) at every split boundary for cooperative
// cancellation. For AffinityPartitioner, pass a persistent *AffinityState;
// it may be nil for the other partitioners. Kernels run ranges through
// Loop.OnTBB; this *Ctx driver stays exported only because bench/ladder.go
// compiles against it.
func ParallelForRangeCtx(ctx context.Context, pool *Pool, r Range, part Partitioner, aff *AffinityState, body func(lo, hi int, c *Ctx)) error {
	kind := runKind(part)
	if kind == taskAffinity && aff == nil {
		panic("sched: AffinityPartitioner requires an AffinityState")
	}
	return pool.runCtx(ctx, r, kind, aff, body)
}

// seeds is how many pieces auto and affinity cut r into up front: most, but
// never more than ceil(size/grain), so no seeded piece is finer than the
// simple partitioner's leaves of the same range.
func seeds(r Range, most int) int {
	g := r.grain()
	return min(most, (r.Size()+g-1)/g)
}

// autoRoot seeds up to one piece per worker, handing each to a child, then
// lets autoRun subdivide on steals.
func (w *worker) autoRoot() {
	rs := &w.pool.rs
	lo, n := w.lo, w.hi-w.lo
	k := seeds(Range{w.lo, w.hi, rs.grain}, w.pool.workers)
	for i := 1; i <= k; i++ {
		hi := lo + n*i/k
		w.push(w, rs.word(w.lo, hi))
		w.lo = hi
	}
}

// autoRun executes a piece; if this task arrived by theft and the range is
// still divisible, it halves it, pushing the right half as a child and going
// on with the left, giving the next thief something big to take.
func (w *worker) autoRun() {
	p, rs := w.pool, &w.pool.rs
	for w.stolen && w.hi-w.lo > rs.grain {
		if p.stopped() {
			return
		}
		p.counters.Inc(w.id, telemetry.RangeSplits)
		mid := w.lo + (w.hi-w.lo)/2
		w.push(w, rs.word(mid, w.hi))
		w.hi = mid
	}
	w.leaf()
}

// AffinityState carries the block→worker map of an affinity-partitioned
// loop across executions. Zero value is ready to use; reuse the same value
// for repeated executions of the same loop to get the replay behaviour
// ("if the same affinity partitioner is used on multiple loops, it tries to
// allocate the iterations to the thread that executed them during the
// previous loop"). A range is cut into len(homes) equal blocks, computed
// from its bounds on every run, so a range of the same size at another Lo
// replays the same map.
type AffinityState struct {
	homes   []int // worker that last ran each block
	n       int   // iteration count the map was built for
	workers int   // engine size the map was built for
}

// fit readies the map for r on an engine of the given size: up to 4·workers
// blocks, no finer than r's grain allows (seeds), homed round-robin. A map
// built for the same size, engine size and block count is kept as it is.
func (a *AffinityState) fit(r Range, workers int) {
	nb := seeds(r, 4*workers)
	if len(a.homes) == nb && a.n == r.Size() && a.workers == workers {
		return
	}
	a.homes = a.homes[:0]
	for b := 0; b < nb; b++ {
		a.homes = append(a.homes, b%workers)
	}
	a.n, a.workers = r.Size(), workers
}

// affinityRoot pushes each block of the run onto its home worker's deque.
// Idle workers may still steal blocks, and affinityBlock moves the home to the
// thief.
func (w *worker) affinityRoot() {
	p := w.pool
	for b, home := range p.rs.aff.homes {
		w.push(&p.ws[home], uint64(b))
		_, w.lo = p.rs.block(b)
	}
}

// affinityBlock runs block b of the current affinity run on w, which becomes
// the block's home for the next run.
func (w *worker) affinityBlock(b int) {
	rs := &w.pool.rs
	rs.aff.homes[b] = w.id
	w.pool.counters.Inc(w.id, telemetry.ChunksClaimed)
	rs.body(w.lo, w.hi, w.id)
}
