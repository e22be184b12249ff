package sched

import (
	"context"
	"runtime"
	"sync/atomic"

	"micgraph/internal/telemetry"
	"micgraph/internal/xrand"
)

// Pool is the engine seen from its task discipline, a Cilk Plus-style
// work-stealing runtime: each worker owns a deque, pushes spawned tasks at the
// bottom, and steals from the top of a randomly chosen victim when idle. It
// also underlies the TBB-style partitioners in tbb.go. The goroutine that
// starts a run executes the root task as worker 0; then every worker pops or
// steals until the root's scope has drained, and between regions the helpers
// spin, then park. Kernel signatures say *Pool where they run tasks and *Team
// where they run loops; both name the one engine.
type Pool = Team

// worker is one scheduler thread of the pool.
type worker struct {
	pool *Pool
	id   int
	dq   deque
	rng  xrand.Rand
	free []*ctxBox // recycled Ctx+scope pairs, touched only by the goroutine working as this worker
}

// ctxBox is a Ctx and its child scope allocated as one block so runTask
// costs zero allocations in steady state. Recycling is safe because a
// scope is dead once its owner's Sync has observed pending == 0: a child
// touches its parent's scope only to decrement pending, and every child has
// decremented before Sync returns. The free list is per-worker and only
// touched by the goroutine working as that worker (runTask runs on it, even
// when nested via Sync's help-first execution), so no lock is needed.
type ctxBox struct {
	c  Ctx
	sc scope
}

// getCtx leases a Ctx with a fresh child scope.
func (w *worker) getCtx() *Ctx {
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return &b.c
	}
	b := &ctxBox{}
	b.c = Ctx{w: w, sc: &b.sc, box: b}
	return &b.c
}

// putCtx returns a Ctx leased by getCtx. Only call after Sync has drained
// the scope (pending == 0).
func (w *worker) putCtx(c *Ctx) { w.free = append(w.free, c.box) }

// scope counts the outstanding children of one spawning task, so Sync knows
// when they have all completed. What else a task tree shares — its context
// and the slot its first panic lands in — is the pool's, for the run.
type scope struct {
	pending atomic.Int64
}

// Ctx is the handle a task uses to spawn children, wait for them, and
// identify its worker (for thread-local storage). A Ctx is only valid within
// the task invocation it was passed to.
type Ctx struct {
	w      *worker
	sc     *scope
	box    *ctxBox // back-pointer for recycling
	stolen bool    // whether the task was obtained by theft
}

// Worker returns the executing worker's id in [0, Workers()).
func (c *Ctx) Worker() int { return c.w.id }

// Pool returns the pool executing this task.
func (c *Ctx) Pool() *Pool { return c.w.pool }

// Stolen reports whether the currently executing task was obtained by
// stealing rather than popped from the owner's deque. The TBB auto
// partitioner uses this signal ("it creates some subranges first and
// subdivides a range further only when it gets stolen").
func (c *Ctx) Stolen() bool { return c.stolen }

// Cancelled reports whether the run this task belongs to has been cancelled
// or has failed: true once the run's context is done or any task of the run
// has panicked. Long loop bodies may poll it to bail out early; the loop
// drivers poll it at every split/claim boundary.
func (c *Ctx) Cancelled() bool { return c.w.pool.stopped() }

// NewPool is NewTeam: the engine serves both disciplines.
func NewPool(n int) *Pool { return NewTeam(n) }

// RunCtx executes root on the pool and blocks until root and every task it
// transitively spawned have completed (Cilk's implicit sync at function
// exit applies to every task). It returns ErrClosed when the engine has
// been closed, or a *PanicError carrying the first task panic with its stack;
// on a task panic the rest of the task tree drains cleanly (no task is
// abandoned mid-flight) and the pool remains usable. Once ctx (which may be
// nil) is done, task bodies stop being invoked (queued tasks still drain
// their scope bookkeeping, so the run terminates promptly) and RunCtx
// returns ctx.Err(). A task panic takes precedence over cancellation.
func (p *Pool) RunCtx(ctx context.Context, root func(*Ctx)) error {
	return p.runRoot(ctx, task{fn: root}, nil)
}

// runRoot executes t as the root task of a run and returns when the whole
// task tree has completed. aff is the affinity run's block map, nil for any
// other run.
func (p *Pool) runRoot(ctx context.Context, t task, aff *AffinityState) error {
	if p.crew.leave {
		return ErrClosed
	}
	p.begin(ctx)
	p.tasks = true
	p.top.pending.Store(1)
	t.scope = &p.top
	p.root, p.aff = t, aff
	p.counters.Inc(0, telemetry.TasksSpawned) // the root counts as one spawned task
	p.crew.run()
	p.root, p.aff = task{}, nil // drop references; the fields are resident
	return p.end()
}

// runShare is worker w's share of the current run: worker 0 executes the root
// task, and every worker runs what it can pop or steal until the root's scope
// has drained.
func (p *Pool) runShare(w int) {
	wk := &p.ws[w]
	if w == 0 {
		runTask(wk, p.root, false)
	}
	wk.drain(&p.top)
}

// runTask executes t in a recycled child scope with panic containment, then
// performs the implicit sync, counts t out of its parent's scope and returns
// the Ctx to the worker's free list. A panicking task is recorded on the run;
// its already-spawned children still drain so no scope count leaks. Range
// tasks (t.fn == nil) continue the split of [t.lo, t.hi) their kind names.
// stolen says whether t came off another worker's deque (Ctx.Stolen).
func runTask(w *worker, t task, stolen bool) {
	p := w.pool
	ctx := w.getCtx()
	ctx.stolen = stolen
	func() {
		defer p.contain(w.id, p.counters)
		if p.inject != nil {
			p.inject("pool/task", w.id)
		}
		if !ctx.Cancelled() {
			switch {
			case t.fn != nil:
				t.fn(ctx)
			case t.kind == taskAuto:
				autoRun(ctx, Range{t.lo, t.hi, t.grain}, t.body)
			case t.kind == taskAutoRoot:
				autoRoot(ctx, Range{t.lo, t.hi, t.grain}, t.body)
			case t.kind == taskAffinity:
				affinityBlock(ctx, t.grain, t.lo, t.hi, t.body)
			case t.kind == taskAffinityRoot:
				affinityRoot(ctx, Range{t.lo, t.hi, t.grain}, t.body)
			default:
				ctx.forSplit(t.lo, t.hi, t.grain, t.body)
			}
		}
	}()
	ctx.Sync() // implicit sync at task exit, also on panic/cancellation
	t.scope.pending.Add(-1)
	w.putCtx(ctx)
}

// Spawn schedules f to run concurrently with the continuation of the
// current task. The child is pushed on the executing worker's own deque
// (work-first would run it immediately; help-first matches how thieves in
// the paper's runtimes pick up whole subtrees and is what we implement).
// The task record carries f directly — no wrapper closure is allocated.
func (c *Ctx) Spawn(f func(*Ctx)) { c.push(c.w, task{fn: f}) }

// push makes t a child of the executing task and puts it on w's deque — the
// one way a task enters a deque: counted in the spawner's scope (so Sync
// waits for it) and in its TasksSpawned, then pushed. w is the spawner's own
// worker, except when the affinity partitioner seeds a block on its home.
// Nobody needs waking: while a run is in flight every worker is popping or
// stealing.
func (c *Ctx) push(w *worker, t task) {
	t.scope = c.sc
	c.sc.pending.Add(1)
	c.w.pool.counters.Inc(c.w.id, telemetry.TasksSpawned)
	w.dq.pushBottom(t)
}

// Sync blocks until every task spawned by this Ctx has completed. While
// waiting, the worker executes other available tasks (its own first, then
// stolen ones), so Sync never wastes the worker.
func (c *Ctx) Sync() { c.w.drain(c.sc) }

// drain runs the tasks the worker can pop or steal until sc has no pending
// children: Sync's wait, and a worker's share of a run once it is not
// running the root.
func (w *worker) drain(sc *scope) {
	for sc.pending.Load() > 0 {
		if !w.tryRunOne() {
			runtime.Gosched()
		}
	}
}

// tryRunOne executes one task if any is available, preferring the worker's
// own deque and falling back to stealing from random victims. It reports
// whether a task ran.
func (w *worker) tryRunOne() bool {
	p := w.pool
	if t, ok := w.dq.popBottom(); ok {
		runTask(w, t, false)
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
			runTask(w, t, true)
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
	counters := c.w.pool.counters
	for hi-lo > grain {
		if c.Cancelled() {
			return
		}
		counters.Inc(c.w.id, telemetry.RangeSplits)
		mid := lo + (hi-lo)/2
		c.push(c.w, task{body: body, lo: lo, hi: mid, grain: grain})
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
	return p.runRoot(ctx, task{body: body, lo: 0, hi: n, grain: grain}, nil)
}
