package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"micgraph/internal/telemetry"
)

// PanicError is the error returned by the loop and task drivers when a loop
// body, task, or injected fault panics on a worker. It preserves the
// original panic value and the stack of the panicking worker goroutine, so
// a crash inside a parallel region is as debuggable as a sequential one.
type PanicError struct {
	Value  any    // the value passed to panic()
	Worker int    // id of the worker the panic occurred on
	Stack  []byte // stack trace captured at recovery point
}

// Error formats the panic with its originating stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: panic on worker %d: %v\n%s", e.Worker, e.Value, e.Stack)
}

// Unwrap exposes the panic value when it is itself an error, so
// errors.Is/As see through the runtime boundary (e.g. to classify an
// injected fault as transient).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// ErrClosed is returned by every driver of either discipline — ForCtx, ForE,
// RunCtx, the pool loop drivers, Loop.Run — once the engine has been closed.
var ErrClosed = errors.New("sched: region on closed engine")

// panicSlot collects the first panic observed across the workers of one
// loop or task tree. Later panics are dropped: the first failure is the
// one that aborts the region, matching errgroup-style semantics.
type panicSlot struct {
	has atomic.Bool // lock-free "a panic happened" flag for hot-path polls
	mu  sync.Mutex
	err *PanicError
}

// failed reports (without locking) whether a panic has been recorded.
func (s *panicSlot) failed() bool { return s.has.Load() }

// record stores the panic if the slot is still empty. A re-thrown
// *PanicError keeps its original worker and stack.
func (s *panicSlot) record(worker int, v any, stack []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if pe, ok := v.(*PanicError); ok {
		s.err = pe
	} else {
		s.err = &PanicError{Value: v, Worker: worker, Stack: stack}
	}
	s.has.Store(true)
}

// reset clears the slot for reuse by the next loop on a resident control
// block. Must not race with record — callers reset only between loops.
func (s *panicSlot) reset() {
	s.mu.Lock()
	s.err = nil
	s.has.Store(false)
	s.mu.Unlock()
}

func (s *panicSlot) get() *PanicError {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// region is what the workers of one parallel region share besides its work:
// the context it runs under (nil when not cancellable) and the slot its first
// panic lands in. A loop and a task run are regions; the engine keeps one
// resident, because its regions are serial.
type region struct {
	ctx  context.Context
	slot panicSlot
}

// begin readies r for the next region, run under ctx.
func (r *region) begin(ctx context.Context) {
	r.ctx = ctx
	r.slot.reset()
}

// stopped reports whether the region has failed or been cancelled; workers
// poll it at every chunk-claim, split and task boundary.
func (r *region) stopped() bool {
	return r.slot.failed() || r.ctx != nil && r.ctx.Err() != nil
}

// contain is deferred around whatever may panic on worker w — a loop body, a
// task, the fault hook: it records the panic in the region and counts it.
func (r *region) contain(w int, c *telemetry.Counters) {
	if v := recover(); v != nil {
		r.slot.record(w, v, debug.Stack())
		c.Inc(w, telemetry.PanicsContained)
	}
}

// end returns the region's outcome — its first panic, else its context's
// error — and drops the context.
func (r *region) end() error {
	ctx := r.ctx
	r.ctx = nil
	if pe := r.slot.get(); pe != nil {
		return pe
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// InjectFunc is an optional fault-injection hook called by the runtimes at
// chunk-claim and task-execution boundaries (site identifies the boundary,
// e.g. "team/chunk" or "pool/task"). A hook that panics is contained
// exactly like a panicking loop body; a hook that sleeps models a stalled
// worker. See internal/fault for a deterministic implementation.
type InjectFunc func(site string, worker int)
