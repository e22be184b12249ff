// Package sched implements the three parallel-runtime substrates the paper
// compares, as two disciplines of one goroutine-based engine — the way the
// paper runs OpenMP, Cilk Plus and TBB on the same hardware threads of one
// card, differing only in how they hand out work:
//
//   - the loop discipline: an OpenMP-style thread team executing
//     parallel-for loops under the static, dynamic, or guided scheduling
//     policy with a chunk size (§II-A of the paper). Dynamic is OpenMP 5.0's
//     nonmonotonic dynamic: first come first served inside the worker's own
//     contiguous block of the loop, then from the other workers' blocks
//     (dynamicClaim says why). Like the OpenMP runtime the paper ran under,
//     the thread that opens a loop works in it (the caller of ForCtx is
//     worker 0) and the rest of the team spin-waits for the next region
//     before it parks (crew.go);
//   - the task discipline: a Cilk Plus-style work-stealing runtime with
//     per-worker deques running cilk_for, a parallel-for that splits its
//     range recursively (§II-B). Its tasks are subranges of one loop, each a
//     single word on a deque; the caller of a run executes the root task as
//     worker 0, and every worker pops or steals until the iterations run or
//     skipped add up to the loop's size;
//   - the TBB-style blocked ranges with simple, auto, and affinity
//     partitioners (§II-C), built on the task discipline.
//
// Team is the engine; Pool is another name for the same type, which kernel
// signatures use to say they run tasks on it. An engine of W workers starts
// W − 1 helpers, shared by both disciplines, and serves one region at a
// time, whichever discipline: a loop or a run, never one inside the other.
//
// The per-worker state the paper keeps in hyperobjects (Cilk holders and
// reducers, TBB enumerable_thread_specific and combinable) is plain
// per-worker arrays indexed by the worker id every loop body receives;
// the kernels' Scratch types own them.
//
// Worker counts are explicit — never derived from GOMAXPROCS — because the
// kernels built on top of this package must behave identically regardless of
// the host: the paper's speedup *curves* are regenerated by the machine
// simulator in package mic, while these engines provide real parallel
// execution and, above all, bit-identical kernel semantics (speculative
// coloring conflicts, relaxed BFS races) to the paper's C++ codes.
//
// Loop (loop.go) is the one value the kernels write their round and level
// structure against: bound to a team loop, a cilk_for or a partitioned
// range, it runs a (lo, hi, worker) body with the same contract on each.
//
// # Failure semantics
//
// Both disciplines contain panics the same way (region.contain): a panic in
// a loop body, task, or injected fault hook is captured with its stack on the
// worker where it occurred (that may be the caller's own goroutine, as
// worker 0), the remaining workers drain cleanly (no chunk is left
// half-claimed, no task abandoned, no goroutine leaks), and the driver —
// Team.ForCtx/ForE, Pool.ParallelForCtx/ParallelForE, ParallelForRangeCtx,
// Loop.Run — returns a *PanicError. Every driver that takes a
// context.Context polls it at every chunk-claim, split and task boundary,
// giving kernels cooperative cancellation and deadlines; on cancellation the
// loop stops claiming new chunks and splitting ranges (a task skips the range
// it still holds, and counts it as done so the run ends), already-running
// bodies finish, and the driver returns ctx.Err().
// Close dismisses an engine's helpers and is idempotent; every driver on a
// closed engine returns ErrClosed, for an empty loop too. An engine may not
// be driven from two goroutines at once.
package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"micgraph/internal/telemetry"
	"micgraph/internal/xrand"
)

// Policy selects how a Team distributes loop iterations, mirroring OpenMP's
// schedule(static|dynamic|guided) clauses.
type Policy int

const (
	// Static assigns chunks to workers round-robin up front: chunk i goes to
	// worker i mod t. With Chunk == 0 the iteration space is split into one
	// contiguous block per worker.
	Static Policy = iota
	// Dynamic hands out fixed-size chunks first come first served within
	// the worker's own contiguous block [n·w/W, n·(w+1)/W), then from the
	// others' (see dynamicClaim).
	Dynamic
	// Guided hands out geometrically shrinking chunks (remaining/t, but
	// never below Chunk) first-come first-served.
	Guided
)

// String returns the OpenMP name of the policy.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ForOptions configures one Team loop.
type ForOptions struct {
	Policy Policy
	Chunk  int // chunk size; 0 means the policy default

	// SerialBelow makes ForCtx run loops of n <= SerialBelow iterations
	// inline, as one body call [0, n) on the calling goroutine, instead of
	// publishing them to the team — the granularity rule of GBBS-style
	// parallel_for, for the narrow levels of level-synchronous kernels (BFS
	// tails, late coloring rounds). The caller works in a dispatched loop
	// too, so what inlining saves is the publish and the barrier, plus the
	// helpers' wake-ups once they have parked. Zero means one chunk per
	// worker, workers × max(Chunk, DefaultChunk): below that not every worker
	// can claim one, so the barrier cannot pay for itself. Negative means
	// never. An inline loop runs as worker 0 with the same containment (panics
	// return *PanicError, ctx is honored, the fault hook fires once).
	SerialBelow int
}

// DefaultChunk is used when ForOptions.Chunk is 0 under Dynamic/Guided
// (OpenMP's dynamic default is 1; we keep that).
const DefaultChunk = 1

// Team is the engine both disciplines run on: a fixed group of workers — n − 1
// resident helper goroutines plus the goroutine that opens a region, which
// works through it as worker 0, OpenMP's master semantics (an engine of one is
// the caller alone). A region is a parallel-for loop (ForCtx, the analogue of
// an OpenMP thread team's loop) or a task run (ParallelForCtx and
// ParallelForRangeCtx, where the engine is called a Pool). It is published by
// bumping one generation word after its control block is written; helpers
// poll that word for a short fixed budget after their last region before they
// park, and the caller waits for a region's stragglers the same way, so the
// next loop of a level-synchronous kernel finds its team awake (crew has the
// protocol, spinBudget what the budget is sized against). An engine must be
// released with Close. One region runs at a time, like an OpenMP parallel
// region: engine methods are not safe for concurrent use, and no region may be
// opened from inside another of the same engine.
type Team struct {
	workers  int
	crew     *crew               // the helpers; a region's caller is worker 0
	inject   InjectFunc          // optional fault hook, fired at chunk claims and task executions
	counters *telemetry.Counters // optional scheduler counters (nil = off)

	// The current region, resident because regions are serial: its context
	// and panic slot, and which discipline its generation runs.
	region
	tasks bool

	ls loopState // the loop discipline's control block

	// The task discipline: per-worker deques and Ctxs, and the current run's
	// control block.
	ws []worker
	rs runState
}

// NewTeam creates an engine of n workers (n >= 1): it starts n − 1
// goroutines, which serve its loops and its task runs alike.
func NewTeam(n int) *Team {
	if n < 1 {
		panic(fmt.Sprintf("sched: NewTeam(%d): need at least one worker", n))
	}
	t := &Team{workers: n, ws: make([]worker, n)}
	t.ls.cur = make([]blockCursor, n)
	for i := range t.ws {
		t.ws[i] = worker{pool: t, id: i, rng: *xrand.New(uint64(i)*0x9E3779B97F4A7C15 + 1)}
		t.ws[i].c.w = &t.ws[i]
	}
	t.crew = newCrew(n, t.work) // per-region state is resident: dispatching allocates nothing
	return t
}

// work is worker w's share of the current region, in its discipline.
func (t *Team) work(w int) {
	if t.tasks {
		t.runShare(w)
	} else {
		t.loopShare(w)
	}
}

// loopShare is worker w's share of the loop in t.ls: claim chunks until the
// policy has none left, with a panic contained where it happened. With
// counters attached it books how long after the loop's publication the worker
// got here and how long it stayed (cmd/micrun -metrics-out prints both).
func (t *Team) loopShare(w int) {
	defer t.contain(w, t.counters)
	if c := t.counters; c != nil {
		start := telemetry.System.Now()
		c.Add(w, telemetry.LoopStartLagNS, int64(start.Sub(t.ls.published)))
		defer func() { c.Add(w, telemetry.LoopBusyNS, int64(telemetry.System.Now().Sub(start))) }()
	}
	t.ls.claim(t, w)
}

// Workers returns the engine size.
func (t *Team) Workers() int { return t.workers }

// SetInject installs a fault-injection hook fired at every chunk-claim
// boundary of a loop (site "team/chunk") and before every task execution of
// a run (site "pool/task"). Pass nil to disable. Must not be called while a
// region is running.
func (t *Team) SetInject(f InjectFunc) { t.inject = f }

// SetCounters attaches scheduler counters: chunks claimed, those of them
// stolen from another worker's block, each worker's start lag and busy time
// per dispatched loop, tasks spawned, steals and steal failures, range
// splits, panics contained. Pass nil to disable — the default, which keeps
// the claim and scheduling paths at a single nil check per event. Must not be
// called while a region is running; the counters must have been created for
// at least Workers() workers.
func (t *Team) SetCounters(c *telemetry.Counters) { t.counters = c }

// Close dismisses the helper goroutines and returns when they have gone; a
// region on a closed engine returns ErrClosed. Closing twice is a no-op.
func (t *Team) Close() { t.crew.dismiss() }

// loopState is the shared control block of one parallel loop: the claim
// cursors of the three scheduling policies. Workers consult it, and the
// region, at every chunk-claim boundary, so a failure or cancellation stops
// the whole team within one chunk.
//
// Each engine owns exactly one loopState, reset in ForCtx — regions are
// serial, and keeping the block resident makes loop dispatch allocation-free
// (pinned by the kerneltest alloc gates).
type loopState struct {
	n     int                  // iteration count of the current loop
	chunk int                  // requested chunk size (0 = policy default)
	body  func(lo, hi, w int)  // current loop body
	claim func(t *Team, w int) // policy-specific claim loop
	cur   []blockCursor        // dynamic policy cursors, one per worker
	gmu   sync.Mutex           // guided policy cursor lock
	gnext int64                // guided policy cursor

	published time.Time // when the loop went out; taken only with counters attached
}

// blockCursor is the Dynamic claim cursor of one worker's block, on a cache
// line of its own: a worker inside its block shares the line with nobody.
type blockCursor struct {
	next atomic.Int64
	_    [56]byte
}

// checkpoint is evaluated at each chunk-claim boundary: it fires the
// fault-injection hook (whose panic is contained like a body panic) and
// reports whether the worker should stop.
func (t *Team) checkpoint(w int) bool {
	if t.stopped() {
		return true
	}
	if t.inject != nil {
		t.inject("team/chunk", w)
	}
	return false
}

// ForE is ForCtx without a context. It stays only because bench/ladder.go
// compiles against it.
func (t *Team) ForE(n int, opts ForOptions, body func(lo, hi, worker int)) error {
	return t.ForCtx(nil, n, opts, body)
}

// ForCtx executes body(lo, hi, worker) over contiguous chunks covering
// [0, n), scheduled according to opts, and returns when every iteration has
// completed. body may be called concurrently from different workers; each
// index in [0, n) is covered exactly once. The first worker panic comes
// back as a *PanicError instead of crashing — the panic is captured with
// its stack, the remaining workers drain cleanly, and the Team remains
// usable for further loops. Cancellation is cooperative: ctx (which may be
// nil) is polled at every chunk-claim boundary, and on cancellation the
// loop stops claiming new chunks and returns ctx.Err() (iterations not yet
// claimed are skipped). A worker panic takes precedence over cancellation.
// A loop too short for every worker to claim a chunk runs inline on the
// caller (SerialBelow); any other is published to the helpers and worked by
// the caller as worker 0 until every worker has run out of chunks. On a
// closed engine it returns ErrClosed.
func (t *Team) ForCtx(ctx context.Context, n int, opts ForOptions, body func(lo, hi, worker int)) error {
	if t.crew.leave {
		return ErrClosed
	}
	if n <= 0 {
		return nil
	}
	serialBelow := opts.SerialBelow
	if serialBelow == 0 {
		serialBelow = t.workers * max(opts.Chunk, DefaultChunk)
	}
	if n <= serialBelow {
		return t.runSerial(ctx, n, body)
	}
	ls := &t.ls
	t.begin(ctx)
	t.tasks = false
	ls.n, ls.chunk = n, opts.Chunk
	ls.body = body
	ls.gnext = 0
	switch opts.Policy {
	case Static:
		ls.claim = staticClaim
	case Dynamic:
		ls.claim = dynamicClaim
		for w := range ls.cur {
			ls.cur[w].next.Store(int64(n * w / t.workers))
		}
	case Guided:
		ls.claim = guidedClaim
	default:
		panic(fmt.Sprintf("sched: unknown policy %d", opts.Policy))
	}
	if t.counters != nil {
		ls.published = telemetry.System.Now()
	}
	t.crew.run()
	ls.body = nil // drop the reference; the block is resident
	return t.end()
}

// runSerial executes a small loop inline on the calling goroutine as
// worker 0, preserving the ForCtx contract: its one chunk is claimed through
// the same checkpoint (ctx polled, fault hook fired) and a panic (body's or
// the hook's) is contained into a *PanicError.
func (t *Team) runSerial(ctx context.Context, n int, body func(lo, hi, w int)) error {
	t.begin(ctx)
	func() {
		defer t.contain(0, t.counters)
		if !t.checkpoint(0) {
			t.counters.Inc(0, telemetry.ChunksClaimed)
			body(0, n, 0)
		}
	}()
	return t.end()
}

func staticClaim(t *Team, w int) {
	ls := &t.ls
	n, chunk := ls.n, ls.chunk
	if chunk <= 0 {
		// One contiguous block per worker, sized as evenly as possible.
		if t.checkpoint(w) {
			return
		}
		lo := n * w / t.workers
		hi := n * (w + 1) / t.workers
		if lo < hi {
			t.counters.Inc(w, telemetry.ChunksClaimed)
			ls.body(lo, hi, w)
		}
		return
	}
	for lo := w * chunk; lo < n; lo += t.workers * chunk {
		if t.checkpoint(w) {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		t.counters.Inc(w, telemetry.ChunksClaimed)
		ls.body(lo, hi, w)
	}
}

// dynamicClaim is schedule(dynamic) as static-steal, OpenMP 5.0's default
// nonmonotonic:dynamic as LLVM's runtime implements it: worker w claims
// chunks by fetch-add from the cursor of its own block [n·w/W, n·(w+1)/W)
// and, once that is empty, tours the other blocks in order, claiming from
// each through the same fetch-add until it is empty too (cursors only grow,
// so one tour is enough). Balance and coverage are those of the one shared
// cursor this replaces — the paper's FCFS fetch-add, which package mic keeps
// modelling on purpose — but that cursor puts two workers on adjacent chunks,
// each writing the cache lines the other reads: coloring a banded mesh at
// Dynamic/100 ran no faster on two workers than on one (DESIGN.md §2). A
// chunk never spans two blocks; one worker runs chunks 0, c, 2c, … in order.
func dynamicClaim(t *Team, w int) {
	ls := &t.ls
	n, chunk := ls.n, ls.chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if chunk > n {
		chunk = n // bounds every cursor by (W+1)·n, whatever the caller asked for
	}
	for off := 0; off < t.workers; off++ {
		b := (w + off) % t.workers
		cur, end := &ls.cur[b].next, n*(b+1)/t.workers
		for {
			if t.checkpoint(w) {
				return
			}
			lo := int(cur.Add(int64(chunk))) - chunk
			if lo >= end {
				break
			}
			t.counters.Inc(w, telemetry.ChunksClaimed)
			if off > 0 {
				t.counters.Inc(w, telemetry.Steals)
			}
			ls.body(lo, min(lo+chunk, end), w)
		}
	}
}

func guidedClaim(t *Team, w int) {
	ls := &t.ls
	n := int64(ls.n)
	minChunk := int64(ls.chunk)
	if minChunk <= 0 {
		minChunk = DefaultChunk
	}
	for {
		if t.checkpoint(w) {
			return
		}
		ls.gmu.Lock()
		lo := ls.gnext
		if lo >= n {
			ls.gmu.Unlock()
			return
		}
		size := (n - lo) / int64(t.workers)
		if size < minChunk {
			size = minChunk
		}
		hi := lo + size
		if hi > n {
			hi = n
		}
		ls.gnext = hi
		ls.gmu.Unlock()
		t.counters.Inc(w, telemetry.ChunksClaimed)
		ls.body(int(lo), int(hi), w)
	}
}
