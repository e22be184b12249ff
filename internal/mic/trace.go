package mic

import "sync"

// Work is the cost vector of one work item (typically: process one vertex
// or queue entry): issue cycles that occupy the core's pipeline, FP cycles
// that occupy the core's FP unit, and stall cycles that overlap with other
// hardware threads (memory latency).
type Work struct {
	Issue   float64
	FP      float64
	Stall   float64
	Atomics float64 // count of atomic RMW operations (costed per machine)
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Issue += o.Issue
	w.FP += o.FP
	w.Stall += o.Stall
	w.Atomics += o.Atomics
}

// Scale returns w with every component multiplied by f.
func (w Work) Scale(f float64) Work {
	return Work{Issue: w.Issue * f, FP: w.FP * f, Stall: w.Stall * f, Atomics: w.Atomics * f}
}

// Total returns the single-thread latency of the item, excluding atomics
// (whose cost is machine-dependent).
func (w Work) Total() float64 { return w.Issue + w.FP + w.Stall }

// Phase is one parallel loop of a kernel: a list of per-item costs executed
// under the run's scheduling policy, followed by an implicit barrier, plus
// optional sequential work (queue merges, swaps) executed by one thread.
//
// A phase is built once and then only read: Items must not be modified,
// resized or replaced once a trace holding the phase has been simulated. The
// simulator keeps the items' running sums from that first call on (and trace
// builders share one phase between traces), and every later call, from any
// goroutine, reads both without synchronisation.
type Phase struct {
	Name  string
	Items []Work
	Seq   float64 // sequential cycles after the barrier (merges, reductions)

	// prefix[i] is Items[0] + ... + Items[i-1], accumulated left to right:
	// a chunk's cost is the difference of two entries, so a simulation
	// costs O(chunks), not O(items). Nil until built.
	prefix []Work
}

// prefixSums returns the running sums of items (len(items)+1 entries).
func prefixSums(items []Work) []Work {
	return fillPrefix(make([]Work, len(items)+1), items)
}

// fillPrefix is prefixSums into prefix, len(items)+1 zeroed entries.
func fillPrefix(prefix, items []Work) []Work {
	for i, it := range items {
		prefix[i+1] = prefix[i]
		prefix[i+1].Add(it)
	}
	return prefix
}

// Trace is the phase-structured cost profile of one kernel execution on one
// graph. It is independent of machine and thread count except where a
// kernel's algorithmic structure itself depends on them (e.g. speculative
// coloring conflicts), which the trace builders in kernels.go parameterise
// explicitly.
type Trace struct {
	Name   string
	Phases []Phase

	// prepare guards the one O(items) step of simulating: the first
	// Simulate of the trace fills in the prefix sums of every phase that
	// came without them (a hand-written literal; the builders in kernels.go
	// run it themselves), and concurrent callers wait for it.
	prepare sync.Once
}

func (tr *Trace) buildPrefixes() {
	missing := func(p *Phase) bool { return p.prefix == nil && len(p.Items) > 0 }
	total := 0
	for i := range tr.Phases {
		if missing(&tr.Phases[i]) {
			total += len(tr.Phases[i].Items) + 1
		}
	}
	flat := make([]Work, total) // one array for the whole trace
	for i := range tr.Phases {
		if p := &tr.Phases[i]; missing(p) {
			n := len(p.Items) + 1
			p.prefix, flat = fillPrefix(flat[:n:n], p.Items), flat[n:]
		}
	}
}
