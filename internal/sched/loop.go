package sched

import "context"

// Loop is one parallel-for site bound to one of the three runtimes. The
// paper's kernels are one algorithm each, carried by programming models that
// differ only in the parallel-for construct (§IV-A1–3); a kernel writes its
// round or level structure once against Run, and its entry points differ
// only in the binder they call:
//
//	OnTeam(team, opts)       — OpenMP parallel for under a schedule
//	OnCilk(pool, grain)      — cilk_for
//	OnTBB(pool, part, grain) — tbb::parallel_for over a blocked range
//
// A binder fixes everything Run needs, so Run goes straight to the engine: a
// team loop (ForCtx) or a task run (runRange) whose tasks call the body
// itself. The zero Loop is unbound; bind it before Run and re-bind it freely
// between runs. Kernels keep it by value in their Scratch. One Run at a time,
// like the engine it is bound to.
type Loop struct {
	eng   *Team // the bound engine
	tasks bool  // bound to the task discipline, else a team loop under opts
	opts  ForOptions

	kind  uint8 // a task binding's run kind: taskFor, taskAuto or taskAffinity
	grain int   // a task binding's grain; <= 0 (cilk_for only) means DefaultGrain at Run
	// aff is the site's block→worker map, replayed across runs. Allocated
	// by the first affinity binding: held by value, its address would be what
	// the engine keeps for the length of an affinity run, and that would
	// force every Loop, even a Team-bound one on a caller's stack
	// (irregular.TeamCtx), onto the heap.
	aff *AffinityState
}

// OnTeam binds the loop to team under opts.
func (l *Loop) OnTeam(team *Team, opts ForOptions) {
	l.eng, l.opts, l.tasks = team, opts, false
}

// OnCilk binds the loop to pool as a cilk_for; grain <= 0 selects
// DefaultGrain of each run's size.
func (l *Loop) OnCilk(pool *Pool, grain int) {
	l.eng, l.tasks, l.kind, l.grain = pool, true, taskFor, grain
}

// OnTBB binds the loop to pool as a blocked range split by part and never
// below grain; grain <= 0 means 1.
func (l *Loop) OnTBB(pool *Pool, part Partitioner, grain int) {
	l.eng, l.tasks, l.kind, l.grain = pool, true, runKind(part), max(grain, 1)
	if l.kind == taskAffinity && l.aff == nil {
		l.aff = new(AffinityState)
	}
}

// Workers returns the worker count of the bound engine; body receives
// worker ids below it.
func (l *Loop) Workers() int { return l.eng.Workers() }

// Run executes body(lo, hi, worker) over chunks covering [0, n) exactly once
// on the bound engine, with the ForCtx contract: ctx (which may be nil) is
// polled wherever the runtime claims or splits work, a body panic comes back
// as a *PanicError, and the Loop stays usable afterwards. Bound by OnTeam
// this is the ForCtx call itself.
func (l *Loop) Run(ctx context.Context, n int, body func(lo, hi, w int)) error {
	if !l.tasks {
		return l.eng.ForCtx(ctx, n, l.opts, body)
	}
	grain := l.grain
	if grain <= 0 {
		grain = DefaultGrain(n, l.eng.workers)
	}
	return l.eng.runRange(ctx, Range{0, n, grain}, l.kind, l.aff, body)
}
