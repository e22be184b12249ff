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
//     split of cilk_for, and run by the same code (Ctx.forSplit);
//   - AutoPartitioner creates ~workers subranges and splits further only
//     when a subrange gets stolen;
//   - AffinityPartitioner remembers which worker ran each block in the
//     previous execution of the same loop and replays that assignment to
//     maximise cache reuse.
//
// All three run as tasks of runTask: the root seeds the range on the caller,
// and every piece it or a split puts on a deque is one task word read against
// the run's body, grain and kind, so no partitioner builds a closure per
// piece. Auto and affinity seed at most ceil(size/grain) pieces — never finer
// than the simple partitioner's leaves of the same range — capped at W and 4W.

// Range is an iteration interval [Lo, Hi) with a minimum split size.
type Range struct {
	Lo, Hi int
	Grain  int // never split below this many iterations; <= 0 means 1
}

// Size returns the iteration count.
func (r Range) Size() int { return r.Hi - r.Lo }

// IsDivisible reports whether the range may be split further.
func (r Range) IsDivisible() bool { return r.Size() > r.grain() }

func (r Range) grain() int {
	if r.Grain <= 0 {
		return 1
	}
	return r.Grain
}

// Split halves the range, returning the left and right parts.
func (r Range) Split() (Range, Range) {
	mid := r.Lo + r.Size()/2
	return Range{r.Lo, mid, r.Grain}, Range{mid, r.Hi, r.Grain}
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

// ParallelForRangeCtx executes body over r on pool using the given
// partitioner, returning the first body panic as a *PanicError and polling
// ctx (which may be nil) at every split boundary for cooperative
// cancellation. For AffinityPartitioner, pass a persistent *AffinityState;
// it may be nil for the other partitioners. Kernels reach it through Loop;
// the free function stays exported only because bench/ladder.go compiles
// against it.
func ParallelForRangeCtx(ctx context.Context, pool *Pool, r Range, part Partitioner, aff *AffinityState, body func(lo, hi int, c *Ctx)) error {
	kind := taskFor
	switch part {
	case SimplePartitioner:
	case AutoPartitioner:
		kind = taskAuto
	case AffinityPartitioner:
		if aff == nil {
			panic("sched: AffinityPartitioner requires an AffinityState")
		}
		kind = taskAffinity
	default:
		panic(fmt.Sprintf("sched: unknown partitioner %d", part))
	}
	return pool.runRange(ctx, r, kind, aff, body)
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
func autoRoot(c *Ctx) {
	rs := &c.w.pool.rs
	lo, n := c.lo, c.hi-c.lo
	k := seeds(Range{c.lo, c.hi, rs.grain}, c.w.pool.workers)
	for i := 1; i <= k; i++ {
		hi := lo + n*i/k
		c.push(c.w, rs.word(c.lo, hi))
		c.lo = hi
	}
}

// autoRun executes a piece; if this task arrived by theft and the range is
// still divisible, it splits once and continues with the left half, giving
// the next thief something big to take.
func autoRun(c *Ctx) {
	p, rs := c.w.pool, &c.w.pool.rs
	r := Range{c.lo, c.hi, rs.grain}
	for c.stolen && r.IsDivisible() {
		if p.stopped() {
			return
		}
		p.counters.Inc(c.w.id, telemetry.RangeSplits)
		left, right := r.Split()
		c.push(c.w, rs.word(right.Lo, right.Hi))
		r, c.hi = left, left.Hi
	}
	if p.stopped() {
		return
	}
	p.counters.Inc(c.w.id, telemetry.ChunksClaimed)
	rs.body(c.lo, c.hi, c)
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
func affinityRoot(c *Ctx) {
	p := c.w.pool
	for b, home := range p.rs.aff.homes {
		c.push(&p.ws[home], uint64(b))
		_, c.lo = p.rs.block(b)
	}
}

// affinityBlock runs block b of the current affinity run on c's worker, which
// becomes the block's home for the next run.
func affinityBlock(c *Ctx, b int) {
	rs := &c.w.pool.rs
	rs.aff.homes[b] = c.w.id
	c.w.pool.counters.Inc(c.w.id, telemetry.ChunksClaimed)
	rs.body(c.lo, c.hi, c)
}
