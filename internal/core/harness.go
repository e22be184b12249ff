package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"micgraph/internal/mic"
	"micgraph/internal/sched"
)

// Harness is what experiment sweeps run under: an optional
// deadline/cancellation context and, on request, per-cell telemetry. A nil
// *Harness (the default on a Suite) behaves like an unbounded harness
// without telemetry.
//
// Failure containment is per cell — one (graph, config, threads) point of a
// sweep. A cell that panics (e.g. an injected worker fault surfacing as a
// *sched.PanicError) is recorded as a CellError annotation on the
// Experiment and excluded from the geometric mean; every other cell still
// runs.
type Harness struct {
	Ctx context.Context

	// Telemetry makes every sweep run with per-cell observation: each
	// successful (graph, config, threads) cell contributes a CellTelemetry
	// record (simulated time + mic.SimStats) to its Experiment. Off by
	// default; the uninstrumented sweep path is unchanged.
	Telemetry bool

	team *sched.Team // the workers of the call in progress; see staffed
}

// telemetryOn reports whether per-cell telemetry collection is enabled.
// Nil-safe.
func (h *Harness) telemetryOn() bool { return h != nil && h.Telemetry }

// cancelled returns the context error once the deadline has passed or the
// run was cancelled, nil otherwise. Nil-safe.
func (h *Harness) cancelled() error {
	if h == nil || h.Ctx == nil {
		return nil
	}
	return h.Ctx.Err()
}

// each calls body(i) for every i in [0, n) from the workers of the harness's
// team, the caller one of them (without a team, the caller alone). Indices
// are claimed in order off one cursor, a claimed index runs to its end and
// nothing is claimed once the harness context has ended, so what ran is
// always a prefix [0, claimed). The cursor is not the team's Dynamic policy
// because that is static-steal: W prefixes, not one. A panic in body is
// re-raised on the caller.
func (h *Harness) each(n int, body func(i int)) (claimed int) {
	var cursor atomic.Int64
	work := func(_, _, _ int) {
		for h.cancelled() == nil {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			body(i)
		}
	}
	if h == nil || h.team == nil || n <= 1 {
		work(0, 0, 0)
	} else if err := h.team.ForCtx(nil, min(h.team.Workers(), n), sched.ForOptions{SerialBelow: -1}, work); err != nil {
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			panic(pe.Value)
		}
		panic(err)
	}
	return min(int(cursor.Load()), n)
}

// staffed returns the suite bound to a copy of its harness that carries a
// sched.Team of GOMAXPROCS workers, and the function that dismisses it: All,
// ByID and RunMany run under one per call. Its helpers spin before they park,
// so the few joins of an experiment cost no thread wake-up each.
func (s *Suite) staffed() (*Suite, func()) {
	var h Harness
	if s.Harness != nil {
		h = *s.Harness
	}
	if h.team != nil {
		return s, func() {}
	}
	h.team = sched.NewTeam(runtime.GOMAXPROCS(0))
	return s.WithHarness(&h), h.team.Close
}

// cellResult is the outcome of one cell of a sweep.
type cellResult struct {
	time    float64 // simulated time; NaN when the cell failed
	claimed bool    // false: the sweep was cut off before the cell was claimed
	err     error
	stats   mic.SimStats // filled only when the cells were observed
}

// cells evaluates sim(i, st) for every cell i in [0, n) through each, a panic
// in one contained as its error, and returns the results by index for the
// caller to assemble in its own order: the output is the same for every
// processor count. st is nil unless observe is set.
func (h *Harness) cells(n int, observe bool, sim func(i int, st *mic.SimStats) float64) []cellResult {
	res := make([]cellResult, n)
	h.each(n, func(i int) {
		r := &res[i]
		var st *mic.SimStats
		if observe {
			st = &r.stats
		}
		r.claimed = true
		if r.err = contain("cell", func() { r.time = sim(i, st) }); r.err != nil {
			r.time = math.NaN()
		}
	})
	return res
}

// contain runs fn and returns its panic, if it panics, as an error; what
// names the failed unit in the message of a panic that is not one.
func contain(what string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("core: %s panicked: %v", what, r)
			}
		}
	}()
	fn()
	return nil
}

// CellError annotates one failed cell of a sweep (or a whole failed
// experiment, when Graph is -1). The sweep it came from still carries every
// cell that succeeded.
type CellError struct {
	Experiment string // experiment ID, filled by the experiment constructor
	Series     string // config/series label, "" for baseline or whole-run errors
	Graph      int    // suite graph index; -1 when not cell-specific
	Threads    int    // thread count of the failed cell; 0 when not cell-specific
	Err        error
}

// Error formats the annotation.
func (e CellError) Error() string {
	where := e.Experiment
	if e.Series != "" {
		where += "/" + e.Series
	}
	if e.Graph >= 0 {
		where += fmt.Sprintf(" graph=%d t=%d", e.Graph, e.Threads)
	}
	return fmt.Sprintf("%s: %v", where, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e CellError) Unwrap() error { return e.Err }

// CellTelemetry is the per-cell observation of one successful sweep point:
// which cell it was, the simulated time, and the simulator's aggregate stats
// (chunks, steals, stall cycles, bound hits). Collected only when the harness
// runs with Telemetry enabled.
type CellTelemetry struct {
	Experiment string       `json:"experiment,omitempty"`
	Series     string       `json:"series"`
	Graph      int          `json:"graph"`
	Threads    int          `json:"threads"`
	SimTime    float64      `json:"sim_time"`
	Stats      mic.SimStats `json:"stats"`
}

// placeholder stands in for an experiment that did not run: no data and one
// annotation, err.
func placeholder(id string, err error) *Experiment {
	return &Experiment{ID: id, Title: id, Errors: []CellError{{Experiment: id, Graph: -1, Err: err}}}
}

// RunMany runs the given experiments (all of them when ids is empty) as one
// call, sharing each trace key's traces between them. A failed experiment or
// an unknown ID comes back annotated: the result has one entry per ID.
func RunMany(ids []string, s *Suite, knf, host *mic.Machine) []*Experiment {
	if len(ids) == 0 {
		ids = AllIDs()
	}
	return runRows(ids, s, knf, host)
}
