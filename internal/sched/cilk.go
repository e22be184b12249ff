package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"micgraph/internal/telemetry"
	"micgraph/internal/xrand"
)

// Pool is a Cilk Plus-style work-stealing runtime: each worker owns a deque,
// pushes spawned tasks at the bottom, and steals from the top of a randomly
// chosen victim when idle. Pool also underlies the TBB-style partitioners in
// tbb.go. Create with NewPool, release with Close.
//
// # Shutdown states
//
// A Pool moves through three explicit states:
//
//  1. open: closed == false. RunCtx and the loop drivers accept work.
//  2. closing: closed == true, active > 0. Close has been called while runs
//     are still in flight; new runs are refused (ErrPoolClosed), but the
//     workers keep executing until every in-flight run has completed — a
//     worker never exits early just because the queue is transiently empty
//     mid-run.
//  3. closed: closed == true, active == 0 and the queue is empty. Workers
//     exit; Close returns after all of them have.
//
// The active-run counter is what makes the transition safe: the historical
// exit condition "closed && queued == 0" could be observed mid-run between
// a task finishing and its continuation being enqueued, silently shrinking
// the worker set. Workers now only exit when no run is in flight.
type Pool struct {
	workers  []*worker
	mu       sync.Mutex
	cond     *sync.Cond
	queued   atomic.Int64
	active   atomic.Int64 // in-flight runs (RunCtx and the loop drivers)
	closed   atomic.Bool
	wg       sync.WaitGroup
	inject   InjectFunc // optional fault hook, fired per task execution
	arena    *Arena     // resident per-worker scratch (see arena.go)
	rootMu   sync.Mutex // guards rootFree
	rootFree []*rootBox // recycled root scopes (see runRoot)

	// counters is the optional scheduler counter sink (nil = off). It is an
	// atomic pointer because pool workers are already spinning through the
	// steal path when SetCounters runs: a plain field would race with the
	// StealFails increment of an idle worker.
	counters atomic.Pointer[telemetry.Counters]
}

// worker is one scheduler thread of the pool.
type worker struct {
	pool   *Pool
	id     int
	dq     deque
	rng    *xrand.Rand
	stolen bool      // whether the task currently executing was obtained by theft
	free   []*ctxBox // recycled Ctx+scope pairs, owner-goroutine only
}

// ctxBox is a Ctx and its child scope allocated as one block so runTask
// costs zero allocations in steady state. Recycling is safe because a
// scope is dead once its owner's Sync has observed pending == 0: children
// only touch the scope through complete(), which for a non-root scope does
// nothing after the atomic decrement, and every child has decremented
// before Sync returns. The free list is per-worker and only touched by the
// worker's own goroutine (runTask runs on it, even when nested via Sync's
// help-first execution), so no lock is needed.
type ctxBox struct {
	c  Ctx
	sc scope
}

// getCtx leases a Ctx with a fresh child scope inheriting the run's panic
// slot and context from parent.
func (w *worker) getCtx(parent *scope) *Ctx {
	var b *ctxBox
	if n := len(w.free); n > 0 {
		b = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	} else {
		b = &ctxBox{}
		b.c.w = w
		b.c.sc = &b.sc
		b.c.box = b
	}
	b.sc.err = parent.err
	b.sc.ctx = parent.ctx
	return &b.c
}

// putCtx returns a Ctx leased by getCtx. Only call after Sync has drained
// the scope (pending == 0).
func (w *worker) putCtx(c *Ctx) {
	b := c.box
	b.sc.err = nil
	b.sc.ctx = nil
	w.free = append(w.free, b)
}

// scope tracks the outstanding children of one spawning task, so Sync knows
// when they have all completed. Every scope of a run shares the root's
// panic slot and context, so a failure or cancellation anywhere in the task
// tree is visible everywhere.
type scope struct {
	pending atomic.Int64
	done    chan struct{}   // non-nil only for the root scope
	err     *panicSlot      // shared panic holder of the run
	ctx     context.Context // shared cancellation of the run (may be nil)
}

func (sc *scope) complete() {
	if sc.pending.Add(-1) == 0 && sc.done != nil {
		// A buffered send (not close) so root scopes can be recycled across
		// runs; each run completes exactly once, so the slot is always free.
		sc.done <- struct{}{}
	}
}

// Ctx is the handle a task uses to spawn children, wait for them, and
// identify its worker (for thread-local storage). A Ctx is only valid within
// the task invocation it was passed to.
type Ctx struct {
	w   *worker
	sc  *scope
	box *ctxBox // back-pointer for recycling; nil for stack-constructed Ctxs
}

// Worker returns the executing worker's id in [0, Workers()).
func (c *Ctx) Worker() int { return c.w.id }

// Pool returns the pool executing this task.
func (c *Ctx) Pool() *Pool { return c.w.pool }

// Stolen reports whether the currently executing task was obtained by
// stealing rather than popped from the owner's deque. The TBB auto
// partitioner uses this signal ("it creates some subranges first and
// subdivides a range further only when it gets stolen").
func (c *Ctx) Stolen() bool { return c.w.stolen }

// Cancelled reports whether the run this task belongs to has been cancelled
// or has failed: true once the run's context is done or any task of the run
// has panicked. Long loop bodies may poll it to bail out early; the loop
// drivers poll it at every split/claim boundary.
func (c *Ctx) Cancelled() bool {
	if c.sc.err != nil && c.sc.err.failed() {
		return true
	}
	return c.sc.ctx != nil && c.sc.ctx.Err() != nil
}

// NewPool creates a work-stealing pool with n workers.
func NewPool(n int) *Pool {
	if n < 1 {
		panic(fmt.Sprintf("sched: NewPool(%d): need at least one worker", n))
	}
	p := &Pool{workers: make([]*worker, n), arena: NewArena(n)}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		p.workers[i] = &worker{pool: p, id: i, rng: xrand.New(uint64(i)*0x9E3779B97F4A7C15 + 1)}
	}
	p.wg.Add(n)
	for _, w := range p.workers {
		go w.loop()
	}
	return p
}

// Workers returns the number of workers.
func (p *Pool) Workers() int { return len(p.workers) }

// SetInject installs a fault-injection hook fired before every task
// execution (site "pool/task"). Pass nil to disable. Must not be called
// while a run is in flight.
func (p *Pool) SetInject(f InjectFunc) { p.inject = f }

// SetCounters attaches scheduler counters (tasks spawned, steals and steal
// failures, range splits, chunks claimed, panics contained). Pass nil to
// disable — the default, which keeps the scheduling paths at a single nil
// check per event. Must not be called while a run is in flight; the
// counters must have been created for at least Workers() workers. Safe to
// call while workers are idle-spinning (the handoff is atomic).
func (p *Pool) SetCounters(c *telemetry.Counters) { p.counters.Store(c) }

// Close shuts the pool down: new runs are refused immediately, in-flight
// runs drain to completion, then the workers exit. Close blocks until they
// have. Closing an already-closed pool is a no-op.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// RunCtx executes root on the pool and blocks until root and every task it
// transitively spawned have completed (Cilk's implicit sync at function
// exit applies to every task). It returns ErrPoolClosed when the pool is
// shut down, or a *PanicError carrying the first task panic with its stack;
// on a task panic the rest of the task tree drains cleanly (no task is
// abandoned mid-flight) and the pool remains usable. Once ctx (which may be
// nil) is done, task bodies stop being invoked (queued tasks still drain
// their scope bookkeeping, so the run terminates promptly) and RunCtx
// returns ctx.Err(). A task panic takes precedence over cancellation.
func (p *Pool) RunCtx(ctx context.Context, root func(*Ctx)) error {
	return p.runRoot(ctx, task{fn: root})
}

// rootBox bundles a recyclable root scope with its panic slot, so starting
// a run allocates nothing in steady state (pinned by the kerneltest alloc
// gates). Boxes are handed out under rootMu; concurrent runs each hold
// their own box for the run's duration.
type rootBox struct {
	sc   scope
	slot panicSlot
}

func (p *Pool) getRoot() *rootBox {
	p.rootMu.Lock()
	var rb *rootBox
	if n := len(p.rootFree); n > 0 {
		rb = p.rootFree[n-1]
		p.rootFree = p.rootFree[:n-1]
	}
	p.rootMu.Unlock()
	if rb == nil {
		rb = &rootBox{}
		rb.sc.done = make(chan struct{}, 1)
		rb.sc.err = &rb.slot
	}
	rb.slot.reset()
	return rb
}

func (p *Pool) putRoot(rb *rootBox) {
	rb.sc.ctx = nil
	p.rootMu.Lock()
	p.rootFree = append(p.rootFree, rb)
	p.rootMu.Unlock()
}

// runRoot executes t as the root task of a run on a recycled root scope and
// blocks until the whole task tree has completed.
func (p *Pool) runRoot(ctx context.Context, t task) error {
	p.active.Add(1)
	defer p.runDone()
	if p.closed.Load() {
		return ErrPoolClosed
	}
	rb := p.getRoot()
	rb.sc.ctx = ctx
	rb.sc.pending.Store(1)
	t.scope = &rb.sc
	p.submit(p.workers[0], t)
	<-rb.sc.done
	var err error
	if pe := rb.slot.get(); pe != nil {
		err = pe
	} else if ctx != nil {
		err = ctx.Err()
	}
	p.putRoot(rb)
	return err
}

// runDone retires one in-flight run and, when it was the last during a
// close, wakes the workers so they can observe the closed state.
func (p *Pool) runDone() {
	if p.active.Add(-1) == 0 && p.closed.Load() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// runTask executes t in a recycled child scope (inheriting the run's panic
// slot and context from t.scope, the parent) with panic containment, then
// performs the implicit sync and returns the Ctx to the worker's free
// list. A panicking task is recorded on the run; its already-spawned
// children still drain so no goroutine or scope count leaks. Range tasks
// (t.fn == nil) continue the split of [t.lo, t.hi) their kind names.
func runTask(w *worker, t task) {
	parent := t.scope
	ctx := w.getCtx(parent)
	func() {
		defer func() {
			if r := recover(); r != nil {
				parent.err.record(w.id, r, debug.Stack())
				w.pool.counters.Load().Inc(w.id, telemetry.PanicsContained)
			}
		}()
		if w.pool.inject != nil {
			w.pool.inject("pool/task", w.id)
		}
		if !ctx.Cancelled() {
			switch {
			case t.fn != nil:
				t.fn(ctx)
			case t.kind == taskAuto:
				autoRun(ctx, Range{t.lo, t.hi, t.grain}, t.body)
			case t.kind == taskAutoRoot:
				autoRoot(ctx, Range{t.lo, t.hi, t.grain}, t.body)
			default:
				ctx.forSplit(t.lo, t.hi, t.grain, t.body)
			}
		}
	}()
	ctx.Sync() // implicit sync at task exit, also on panic/cancellation
	parent.complete()
	w.putCtx(ctx)
}

// Spawn schedules f to run concurrently with the continuation of the
// current task. The child is pushed on the executing worker's own deque
// (work-first would run it immediately; help-first matches how thieves in
// the paper's runtimes pick up whole subtrees and is what we implement).
// The task record carries f directly — no wrapper closure is allocated.
func (c *Ctx) Spawn(f func(*Ctx)) {
	sc := c.sc
	sc.pending.Add(1)
	c.w.pool.submit(c.w, task{scope: sc, fn: f})
}

// spawnRange schedules a subrange continuation of the given kind under the
// current scope. Like Spawn, no wrapper closure is allocated: the shared
// body rides in the task record.
func (c *Ctx) spawnRange(kind uint8, r Range, body func(lo, hi int, c *Ctx)) {
	sc := c.sc
	sc.pending.Add(1)
	c.w.pool.submit(c.w, task{scope: sc, body: body, lo: r.Lo, hi: r.Hi, grain: r.Grain, kind: kind})
}

// Sync blocks until every task spawned by this Ctx has completed. While
// waiting, the worker executes other available tasks (its own first, then
// stolen ones), so Sync never wastes the worker.
func (c *Ctx) Sync() {
	w := c.w
	for c.sc.pending.Load() > 0 {
		if !w.tryRunOne() {
			runtime.Gosched()
		}
	}
}

// submit enqueues t on w's deque and wakes a sleeping worker.
func (p *Pool) submit(w *worker, t task) {
	p.counters.Load().Inc(w.id, telemetry.TasksSpawned)
	w.dq.pushBottom(t)
	p.queued.Add(1)
	p.mu.Lock()
	p.cond.Signal()
	p.mu.Unlock()
}

// submitTo enqueues a task for a specific worker id (used by the affinity
// partitioner to replay a previous distribution).
func (p *Pool) submitTo(workerID int, sc *scope, f func(*Ctx)) {
	sc.pending.Add(1)
	w := p.workers[workerID%len(p.workers)]
	p.submit(w, task{scope: sc, fn: f})
}

// loop is the worker scheduler: pop own work, else steal, else sleep.
// Workers exit only in the fully-closed state: closed, no queued tasks,
// and no run in flight (see the Pool shutdown-state documentation).
func (w *worker) loop() {
	defer w.pool.wg.Done()
	p := w.pool
	for {
		if w.tryRunOne() {
			continue
		}
		p.mu.Lock()
		for p.queued.Load() == 0 && !(p.closed.Load() && p.active.Load() == 0) {
			p.cond.Wait()
		}
		exit := p.closed.Load() && p.queued.Load() == 0 && p.active.Load() == 0
		p.mu.Unlock()
		if exit {
			return
		}
	}
}

// tryRunOne executes one task if any is available, preferring the worker's
// own deque and falling back to stealing from random victims. It reports
// whether a task ran.
func (w *worker) tryRunOne() bool {
	p := w.pool
	if t, ok := w.dq.popBottom(); ok {
		p.queued.Add(-1)
		w.runWith(t, false)
		return true
	}
	// Random victim selection, one full tour of the other workers.
	n := len(p.workers)
	if n == 1 {
		return false
	}
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := p.workers[(start+i)%n]
		if v == w {
			continue
		}
		if t, ok := v.dq.stealTop(); ok {
			p.queued.Add(-1)
			p.counters.Load().Inc(w.id, telemetry.Steals)
			w.runWith(t, true)
			return true
		}
	}
	p.counters.Load().Inc(w.id, telemetry.StealFails)
	return false
}

// runWith executes t with the stolen flag set appropriately for the
// duration of the task (saving/restoring around nested execution in Sync).
func (w *worker) runWith(t task, stolen bool) {
	prev := w.stolen
	w.stolen = stolen
	runTask(w, t)
	w.stolen = prev
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

// For executes body over [lo, hi) by recursive binary splitting down to
// grain (cilk_for). grain <= 0 selects DefaultGrain. body receives the
// subrange and a Ctx for nested spawning and TLS access. When the run has
// been cancelled, splitting stops and remaining subranges are skipped.
func (c *Ctx) For(lo, hi, grain int, body func(lo, hi int, c *Ctx)) {
	if hi <= lo {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain(hi-lo, c.w.pool.Workers())
	}
	c.forSplit(lo, hi, grain, body)
	c.Sync()
}

// forSplit halves [lo, hi) down to grain, spawning the left half as a
// range task (a plain struct on the deque — no closure per split) and
// continuing with the right half, then runs the final subrange inline:
// cilk_for and TBB's simple partitioner alike. A cancelled run stops
// subdividing and skips unexecuted subranges.
func (c *Ctx) forSplit(lo, hi, grain int, body func(lo, hi int, c *Ctx)) {
	counters := c.w.pool.counters.Load()
	sc := c.sc
	for hi-lo > grain {
		if c.Cancelled() {
			return
		}
		counters.Inc(c.w.id, telemetry.RangeSplits)
		mid := lo + (hi-lo)/2
		sc.pending.Add(1)
		c.w.pool.submit(c.w, task{scope: sc, body: body, lo: lo, hi: mid, grain: grain})
		lo = mid
	}
	if c.Cancelled() {
		return
	}
	counters.Inc(c.w.id, telemetry.ChunksClaimed)
	body(lo, hi, c)
}

// ParallelForE is ParallelForCtx without a context. It stays only because
// bench/ladder.go compiles against it.
func (p *Pool) ParallelForE(n, grain int, body func(lo, hi int, c *Ctx)) error {
	return p.ParallelForCtx(nil, n, grain, body)
}

// ParallelForCtx runs a cilk_for over [0, n) as the root task of the pool,
// polling ctx (which may be nil) at every split boundary and returning the
// first body panic as a *PanicError. The loop runs as a root range task
// directly — no wrapper closure — so in steady state the call allocates
// nothing.
func (p *Pool) ParallelForCtx(ctx context.Context, n, grain int, body func(lo, hi int, c *Ctx)) error {
	if n <= 0 {
		return nil
	}
	if grain <= 0 {
		grain = DefaultGrain(n, p.Workers())
	}
	return p.runRoot(ctx, task{body: body, lo: 0, hi: n, grain: grain})
}
