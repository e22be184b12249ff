// Package telemetry is the low-overhead instrumentation substrate of the
// reproduction: it lets every layer above it — the scheduler runtimes in
// package sched, the machine simulator in package mic, the graph kernels,
// and the experiment harness in package core — explain *where time goes*
// without perturbing what is being measured.
//
// It has three independent parts:
//
//   - Counters: per-worker, cache-line-padded atomic counters for scheduler
//     events (chunks claimed, tasks spawned, steals and steal failures,
//     range splits, contained panics, and a Team worker's start lag and
//     busy time per loop). A nil *Counters is a valid no-op sink, so
//     uninstrumented Teams and Pools pay only a nil check per event.
//
//   - Recorder: a single-method interface for kernel phase metrics
//     (per-BFS-level frontier sizes, per-coloring-round conflict counts).
//     The default is Nop; kernels obtain their Recorder from the run's
//     context.Context via FromContext, so the uninstrumented path is
//     allocation-free and branch-predictable.
//
//   - Timeline: a bounded ring buffer of simulator events (chunk
//     executions with their issue/stall decomposition, steals, straggler
//     slowdowns, bandwidth-throttled intervals, barriers) exportable as
//     Chrome trace-event JSON, viewable in Perfetto or chrome://tracing.
//     Export is deterministic: the same simulation always produces
//     byte-identical output.
package telemetry

import "sync/atomic"

// Kind enumerates the scheduler counters.
type Kind int

const (
	// ChunksClaimed counts loop chunks (or work-stealing leaf ranges) a
	// worker claimed and executed.
	ChunksClaimed Kind = iota
	// TasksSpawned counts tasks pushed onto a worker's deque.
	TasksSpawned
	// Steals counts tasks a worker obtained from another worker's deque
	// and, on a Team, Dynamic chunks it claimed from another worker's block.
	Steals
	// StealFails counts full unsuccessful victim tours (the worker found
	// nothing to steal anywhere).
	StealFails
	// RangeSplits counts recursive range/loop splits (cilk_for halving,
	// TBB partitioner subdivisions).
	RangeSplits
	// PanicsContained counts body/task panics captured by the runtime.
	PanicsContained
	// LoopStartLagNS sums, over a Team's dispatched loops, the nanoseconds
	// from the loop's publication to the worker's first claim: what waking
	// the worker cost the loop.
	LoopStartLagNS
	// LoopBusyNS sums the nanoseconds from that first claim to the worker's
	// last; the rest of a loop's wall time it waited at the barrier.
	LoopBusyNS

	// NumKinds is the number of counter kinds.
	NumKinds
)

// String returns the snake_case name used in snapshots and JSON output.
func (k Kind) String() string {
	switch k {
	case ChunksClaimed:
		return "chunks_claimed"
	case TasksSpawned:
		return "tasks_spawned"
	case Steals:
		return "steals"
	case StealFails:
		return "steal_failures"
	case RangeSplits:
		return "range_splits"
	case PanicsContained:
		return "panics_contained"
	case LoopStartLagNS:
		return "loop_start_lag_ns"
	case LoopBusyNS:
		return "loop_busy_ns"
	}
	return "unknown"
}

// workerCell holds one worker's counters, padded so two workers never share
// a cache line (the same false-sharing discipline as the kernels' per-worker
// scratch arrays). When the counters fill whole lines the pad is one more
// whole line, not none: the slice behind the cells is not 64-byte aligned,
// so that line is what keeps neighbouring workers apart.
type workerCell struct {
	v [NumKinds]atomic.Int64
	_ [64 - (NumKinds*8)%64]byte
}

// Counters is a set of per-worker scheduler counters. All methods are safe
// for concurrent use; increments are per-worker and therefore uncontended.
// A nil *Counters is a valid no-op sink.
type Counters struct {
	workers []workerCell
}

// NewCounters creates counters for n workers (n >= 1).
func NewCounters(n int) *Counters {
	if n < 1 {
		n = 1
	}
	return &Counters{workers: make([]workerCell, n)}
}

// Workers returns the worker count (0 for a nil receiver).
func (c *Counters) Workers() int {
	if c == nil {
		return 0
	}
	return len(c.workers)
}

// Inc adds 1 to worker w's counter k. No-op on a nil receiver.
func (c *Counters) Inc(w int, k Kind) {
	if c == nil {
		return
	}
	c.workers[w].v[k].Add(1)
}

// Add adds n to worker w's counter k. No-op on a nil receiver.
func (c *Counters) Add(w int, k Kind, n int64) {
	if c == nil {
		return
	}
	c.workers[w].v[k].Add(n)
}

// Get returns worker w's current value of counter k (0 on nil receiver).
func (c *Counters) Get(w int, k Kind) int64 {
	if c == nil {
		return 0
	}
	return c.workers[w].v[k].Load()
}

// Total returns the sum of counter k across workers.
func (c *Counters) Total(k Kind) int64 {
	if c == nil {
		return 0
	}
	var t int64
	for w := range c.workers {
		t += c.workers[w].v[k].Load()
	}
	return t
}

// CounterSet is one flat set of counter values, used for totals and for
// per-worker breakdowns in snapshots.
type CounterSet struct {
	ChunksClaimed   int64 `json:"chunks_claimed"`
	TasksSpawned    int64 `json:"tasks_spawned"`
	Steals          int64 `json:"steals"`
	StealFails      int64 `json:"steal_failures"`
	RangeSplits     int64 `json:"range_splits"`
	PanicsContained int64 `json:"panics_contained"`
	LoopStartLagNS  int64 `json:"loop_start_lag_ns"`
	LoopBusyNS      int64 `json:"loop_busy_ns"`
}

// field maps a counter kind to its place in the set, in Kind order.
func (s *CounterSet) field(k Kind) *int64 {
	return [NumKinds]*int64{&s.ChunksClaimed, &s.TasksSpawned, &s.Steals, &s.StealFails, &s.RangeSplits,
		&s.PanicsContained, &s.LoopStartLagNS, &s.LoopBusyNS}[k]
}

// Snapshot is a point-in-time copy of a Counters set. Individual loads are
// atomic; the snapshot as a whole is not (counters may advance while it is
// taken), which is fine for its reporting purpose.
type Snapshot struct {
	Workers   int          `json:"workers"`
	Totals    CounterSet   `json:"totals"`
	PerWorker []CounterSet `json:"per_worker,omitempty"`
}

// Snapshot captures the current counter values. On a nil receiver it
// returns a zero snapshot.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	snap := Snapshot{Workers: len(c.workers), PerWorker: make([]CounterSet, len(c.workers))}
	for w := range c.workers {
		for k := Kind(0); k < NumKinds; k++ {
			v := c.workers[w].v[k].Load()
			*snap.PerWorker[w].field(k) = v
			*snap.Totals.field(k) += v
		}
	}
	return snap
}
