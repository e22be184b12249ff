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
	if r.Size() <= 0 {
		return nil
	}
	switch part {
	case SimplePartitioner:
		return pool.runRoot(ctx, task{body: body, lo: r.Lo, hi: r.Hi, grain: r.grain()})
	case AutoPartitioner:
		return pool.runRoot(ctx, task{body: body, lo: r.Lo, hi: r.Hi, grain: r.Grain, kind: taskAutoRoot})
	case AffinityPartitioner:
		if aff == nil {
			panic("sched: AffinityPartitioner requires an AffinityState")
		}
		return affinityRun(ctx, pool, r, aff, body)
	default:
		panic(fmt.Sprintf("sched: unknown partitioner %d", part))
	}
}

// autoRoot seeds one subrange per worker, then lets autoRun subdivide on
// steals.
func autoRoot(c *Ctx, r Range, body func(lo, hi int, c *Ctx)) {
	p := c.Pool().Workers()
	n := r.Size()
	for w := 0; w < p; w++ {
		lo := r.Lo + n*w/p
		hi := r.Lo + n*(w+1)/p
		if lo >= hi {
			continue
		}
		c.spawnRange(taskAuto, Range{lo, hi, r.Grain}, body)
	}
}

// autoRun executes a subrange; if this task arrived by theft and the range
// is still divisible, it splits once and continues with the left half,
// giving the next thief something big to take.
func autoRun(c *Ctx, r Range, body func(lo, hi int, c *Ctx)) {
	counters := c.w.pool.counters
	for c.Stolen() && r.IsDivisible() {
		if c.Cancelled() {
			return
		}
		counters.Inc(c.w.id, telemetry.RangeSplits)
		left, right := r.Split()
		c.spawnRange(taskAuto, right, body)
		r = left
	}
	if c.Cancelled() {
		return
	}
	counters.Inc(c.w.id, telemetry.ChunksClaimed)
	body(r.Lo, r.Hi, c)
}

// AffinityState carries the block→worker map of an affinity-partitioned
// loop across executions. Zero value is ready to use; reuse the same value
// for repeated executions of the same loop to get the replay behaviour
// ("if the same affinity partitioner is used on multiple loops, it tries to
// allocate the iterations to the thread that executed them during the
// previous loop").
type AffinityState struct {
	blocks  []Range // fixed block decomposition from the first run, as offsets from Range.Lo
	homes   []int   // worker that last ran each block
	n       int     // iteration count the state was built for
	workers int
}

// affinityRun decomposes r into ~4·workers blocks (first run: round-robin
// homes) and submits each block directly to its home worker's deque; idle
// workers may still steal blocks, and theft updates the block's home.
func affinityRun(ctx context.Context, pool *Pool, r Range, aff *AffinityState, body func(lo, hi int, c *Ctx)) error {
	p := pool.Workers()
	if aff.blocks == nil || aff.n != r.Size() || aff.workers != p {
		nb := 4 * p
		if nb > r.Size() {
			nb = r.Size()
		}
		aff.blocks = aff.blocks[:0]
		aff.homes = aff.homes[:0]
		for b := 0; b < nb; b++ {
			lo := r.Size() * b / nb
			hi := r.Size() * (b + 1) / nb
			if lo < hi {
				aff.blocks = append(aff.blocks, Range{lo, hi, r.Grain})
				aff.homes = append(aff.homes, b%p)
			}
		}
		aff.n = r.Size()
		aff.workers = p
	}
	return pool.RunCtx(ctx, func(c *Ctx) {
		for i := range aff.blocks {
			i := i
			blk := aff.blocks[i]
			c.Pool().submitTo(aff.homes[i], c.sc, func(cc *Ctx) {
				if cc.Cancelled() {
					return
				}
				aff.homes[i] = cc.Worker() // theft moves the home
				cc.w.pool.counters.Inc(cc.w.id, telemetry.ChunksClaimed)
				body(r.Lo+blk.Lo, r.Lo+blk.Hi, cc)
			})
		}
	})
}
