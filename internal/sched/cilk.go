package sched

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"micgraph/internal/telemetry"
	"micgraph/internal/xrand"
)

// Pool is the engine seen from its task discipline, a Cilk Plus-style
// work-stealing runtime for parallel-for loops: each worker owns a deque,
// pushes the subranges it splits off at the bottom, and steals from the top of
// a randomly chosen victim when idle. It runs cilk_for and the TBB-style
// partitioners in tbb.go alike. The goroutine that starts a run executes the
// root task as worker 0; then every worker pops or steals until the run's
// iterations are all accounted for (runState.done), and between regions the
// helpers spin, then park. Kernel signatures say *Pool where they run tasks and
// *Team where they run loops; both name the one engine.
type Pool = Team

// worker is one scheduler thread of the pool, and the state of the task it is
// running (tasks never nest): the part of the task's range it has not handed
// to a child, and whether the task came off another worker's deque. The
// padding keeps what the owner writes at every split off the cache line of
// the next worker's deque, which that worker locks at every push and pop.
type worker struct {
	pool   *Pool
	id     int
	dq     deque
	rng    xrand.Rand
	lo, hi int
	stolen bool
	c      Ctx // the handle a *Ctx body of an exported driver gets on this worker
	_      [64]byte
}

// Ctx is the handle a body of the exported *Ctx drivers (ParallelForCtx,
// ParallelForE, ParallelForRangeCtx) gets: it identifies the executing worker,
// for per-worker storage, and is only valid within the body invocation it was
// passed to. Loop bodies get the worker id itself.
type Ctx struct{ id int }

// Worker returns the executing worker's id in [0, Workers()).
func (c *Ctx) Worker() int { return c.id }

// runState is the task discipline's control block, resident like loopState:
// the current run's range, body, grain and kind, which every task word of the
// run is read against, and the count of iterations accounted for so far. A
// task keeps a subrange of its range and hands the rest to the children it
// pushes; when it exits it adds what it kept to done, whether it ran that part,
// skipped it on a cancelled run or panicked in it. Every pushed subrange is
// non-empty and the kept parts of all tasks partition [lo, lo+n), so done
// reaches n exactly when every pushed task has exited (the root, which may
// keep nothing, runs on the caller, and the caller reads done only after it).
type runState struct {
	body  func(lo, hi, w int)
	lo, n int   // the run's range, [lo, lo+n)
	grain int   // never split below this many iterations (>= 1)
	kind  uint8 // taskFor, taskAuto or taskAffinity
	aff   *AffinityState
	// done is written at every task's exit: a cache line of its own keeps
	// those writes from evicting the fields above, which every task reads,
	// from the other workers' caches.
	_    [64]byte
	done atomic.Int64
	_    [56]byte
}

// Run kinds: how a run's root seeds it and how each task it pushes continues.
const (
	taskFor      uint8 = iota // cilk_for and TBB simple partitioner: halve to the grain (forSplit)
	taskAuto                  // TBB auto partitioner: seed W pieces (autoRoot), split on steal (autoRun)
	taskAffinity              // TBB affinity partitioner: seed blocks on their homes (affinityRoot, affinityBlock)
)

// word packs [lo, hi) of the current run into a task word: two 32-bit offsets
// from the run's lo. An affinity task's word is its block index instead.
func (r *runState) word(lo, hi int) uint64 { return uint64(lo-r.lo) | uint64(hi-r.lo)<<32 }

// span is the range of task word t of the current run.
func (r *runState) span(t uint64) (lo, hi int) {
	if r.kind == taskAffinity {
		return r.block(int(t))
	}
	return r.lo + int(uint32(t)), r.lo + int(t>>32)
}

// block is the range of affinity block b: the run cut into len(homes) equal
// blocks.
func (r *runState) block(b int) (lo, hi int) {
	nb := len(r.aff.homes)
	return r.lo + r.n*b/nb, r.lo + r.n*(b+1)/nb
}

// NewPool is NewTeam: the engine serves both disciplines.
func NewPool(n int) *Pool { return NewTeam(n) }

// runRange is the one way into the task discipline: it executes body over r,
// split as kind says, and returns when every iteration has been run or
// skipped. On a closed engine it returns ErrClosed, whatever r holds; an empty
// r runs nothing. A run of more than 2³²−1 iterations, which a task word
// cannot hold, panics before any work starts. aff is the block map an affinity
// run replays; no other kind reads it.
func (p *Pool) runRange(ctx context.Context, r Range, kind uint8, aff *AffinityState, body func(lo, hi, w int)) error {
	if p.crew.leave {
		return ErrClosed
	}
	n := r.Size()
	if n <= 0 {
		return nil
	}
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("sched: a run of %d iterations exceeds the 2^32-1 a task word holds", n))
	}
	if kind == taskAffinity {
		aff.fit(r, p.workers)
	}
	p.begin(ctx)
	p.tasks = true
	rs := &p.rs
	rs.body, rs.lo, rs.n, rs.grain, rs.kind, rs.aff = body, r.Lo, n, r.grain(), kind, aff
	rs.done.Store(0)
	p.counters.Inc(0, telemetry.TasksSpawned) // the root counts as one spawned task
	p.crew.run()
	rs.body, rs.aff = nil, nil // drop references; the block is resident
	return p.end()
}

// runCtx is runRange for a body of the exported drivers, which takes a *Ctx:
// the engine's resident adapter (ctxAdapt) hands each chunk on to it with the
// executing worker's Ctx.
func (p *Pool) runCtx(ctx context.Context, r Range, kind uint8, aff *AffinityState, body func(lo, hi int, c *Ctx)) error {
	p.ctxBody = body
	err := p.runRange(ctx, r, kind, aff, p.ctxAdapt)
	p.ctxBody = nil
	return err
}

// runShare is worker w's share of the current run: worker 0 executes the root
// task, and every worker runs what it can pop or steal until the run's
// iterations are all accounted for.
func (p *Pool) runShare(w int) {
	wk := &p.ws[w]
	if w == 0 {
		wk.runTask(0, true, false)
	}
	for n := int64(p.rs.n); p.rs.done.Load() < n; {
		if !wk.tryRunOne() {
			runtime.Gosched()
		}
	}
}

// runTask executes one task of the current run on w — the root (the whole
// range, on the caller) or the task word t — with panic containment, and then
// adds the part of its range it kept to the run's done count. stolen says
// whether t came off another worker's deque; the auto partitioner splits only
// what was stolen.
func (w *worker) runTask(t uint64, root, stolen bool) {
	p, rs := w.pool, &w.pool.rs
	w.stolen = stolen
	if root {
		w.lo, w.hi = rs.lo, rs.lo+rs.n
	} else {
		w.lo, w.hi = rs.span(t)
	}
	defer w.settle()
	defer p.contain(w.id, p.counters)
	if p.inject != nil {
		p.inject("pool/task", w.id)
	}
	if p.stopped() {
		return
	}
	switch {
	case rs.kind == taskFor:
		w.forSplit()
	case rs.kind == taskAuto && root:
		w.autoRoot()
	case rs.kind == taskAuto:
		w.autoRun()
	case root:
		w.affinityRoot()
	default:
		w.affinityBlock(int(t))
	}
}

// settle counts the range w's task kept into the run's done count, after the
// task's body and its contained panic, if any: the caller, which returns once
// done reaches n, sees both.
func (w *worker) settle() { w.pool.rs.done.Add(int64(w.hi - w.lo)) }

// push hands the subrange of task word t to a child on to's deque — the one way
// a task enters a deque — and counts it in TasksSpawned on w, the pusher. to is
// w itself, except when the affinity partitioner seeds a block on its home.
// Nobody needs waking: while a run is in flight every worker is popping or
// stealing.
func (w *worker) push(to *worker, t uint64) {
	w.pool.counters.Inc(w.id, telemetry.TasksSpawned)
	to.dq.pushBottom(t)
}

// tryRunOne executes one task if any is available, preferring the worker's
// own deque and falling back to stealing from random victims. It reports
// whether a task ran.
func (w *worker) tryRunOne() bool {
	p := w.pool
	if t, ok := w.dq.popBottom(); ok {
		w.runTask(t, false, false)
		return true
	}
	// Random victim selection, one full tour of the other workers.
	n := len(p.ws)
	if n == 1 {
		return false
	}
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := &p.ws[(start+i)%n]
		if v == w {
			continue
		}
		if t, ok := v.dq.stealTop(); ok {
			p.counters.Inc(w.id, telemetry.Steals)
			w.runTask(t, false, true)
			return true
		}
	}
	p.counters.Inc(w.id, telemetry.StealFails)
	return false
}

// DefaultGrain mirrors Cilk Plus's cilk_for default grain size:
// min(2048, ceil(n / (8 * workers))).
func DefaultGrain(n, workers int) int {
	g := (n + 8*workers - 1) / (8 * workers)
	if g > 2048 {
		g = 2048
	}
	if g < 1 {
		g = 1
	}
	return g
}

// forSplit halves the task's range down to the grain, pushing the left half
// as a child and keeping the right, then runs the final subrange inline:
// cilk_for and TBB's simple partitioner alike. A cancelled run stops
// subdividing and skips the range it kept.
func (w *worker) forSplit() {
	p, rs := w.pool, &w.pool.rs
	for w.hi-w.lo > rs.grain {
		if p.stopped() {
			return
		}
		p.counters.Inc(w.id, telemetry.RangeSplits)
		mid := w.lo + (w.hi-w.lo)/2
		w.push(w, rs.word(w.lo, mid))
		w.lo = mid
	}
	w.leaf()
}

// leaf runs the range w's task kept, unless the run was cancelled: a split
// task's last piece.
func (w *worker) leaf() {
	p := w.pool
	if p.stopped() {
		return
	}
	p.counters.Inc(w.id, telemetry.ChunksClaimed)
	p.rs.body(w.lo, w.hi, w.id)
}

// ParallelForE is ParallelForCtx without a context. It stays only because
// bench/ladder.go compiles against it.
func (p *Pool) ParallelForE(n, grain int, body func(lo, hi int, c *Ctx)) error {
	return p.ParallelForCtx(nil, n, grain, body)
}

// ParallelForCtx runs a cilk_for over [0, n) on the pool, polling ctx (which
// may be nil) at every split boundary and returning the first body panic as a
// *PanicError; grain <= 0 selects DefaultGrain. In steady state the call
// allocates nothing. Kernels run cilk_for through Loop.OnCilk; this *Ctx
// driver stays exported only because bench/ladder.go compiles against it.
func (p *Pool) ParallelForCtx(ctx context.Context, n, grain int, body func(lo, hi int, c *Ctx)) error {
	if grain <= 0 {
		grain = DefaultGrain(n, p.workers)
	}
	return p.runCtx(ctx, Range{0, n, grain}, taskFor, nil, body)
}
