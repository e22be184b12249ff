package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"micgraph/internal/fault"
	"micgraph/internal/mic"
	"micgraph/internal/sched"
)

// testTrace returns a small uniform trace.
func testTrace(items int) *mic.Trace {
	work := make([]mic.Work, items)
	for i := range work {
		work[i] = mic.Work{Issue: 10, Stall: 5}
	}
	return &mic.Trace{Name: "test", Phases: []mic.Phase{{Name: "loop", Items: work}}}
}

var testConfigs = []mic.Config{
	{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: 8},
	{Kind: mic.TBB, Partitioner: sched.SimplePartitioner, Chunk: 8},
}

// TestSpeedupCurvesPoisonedCell poisons exactly one (graph, config, thread)
// cell of a sweep and checks every other cell still emits a value, while the
// poisoned one is excluded from its point's geometric mean and reported as
// an annotation — the acceptance scenario for graceful degradation.
func TestSpeedupCurvesPoisonedCell(t *testing.T) {
	threads := []int{1, 11, 21}
	boom := errors.New("poisoned trace")
	traceFor := func(gi, ci, tt int) *mic.Trace {
		if gi == 1 && ci == 0 && tt == 11 {
			panic(boom)
		}
		return testTrace(500 * (gi + 1))
	}
	series, errs, _ := speedupCurves(nil, mic.KNF(), testConfigs, []string{"", ""},
		3, threads, traceFor)

	if len(series) != len(testConfigs) {
		t.Fatalf("%d series, want %d", len(series), len(testConfigs))
	}
	for _, s := range series {
		for i, v := range s.Values {
			if v <= 0 {
				t.Errorf("%s at t=%d: value %v, want > 0 (sweep must continue around the poisoned cell)",
					s.Label, s.Threads[i], v)
			}
		}
	}
	if len(errs) != 1 {
		t.Fatalf("%d annotations, want 1: %v", len(errs), errs)
	}
	e := errs[0]
	if e.Graph != 1 || e.Threads != 11 || e.Series != testConfigs[0].String() {
		t.Errorf("annotation %+v does not pin the poisoned cell", e)
	}
	if !errors.Is(e, boom) {
		t.Errorf("annotation lost the cause: %v", e.Err)
	}

	// Determinism: a second identical sweep yields identical curves.
	series2, _, _ := speedupCurves(nil, mic.KNF(), testConfigs, []string{"", ""},
		3, threads, traceFor)
	for ci := range series {
		for i := range series[ci].Values {
			if series[ci].Values[i] != series2[ci].Values[i] {
				t.Fatalf("sweep not deterministic at %s t=%d", series[ci].Label, threads[i])
			}
		}
	}
}

// TestSpeedupCurvesPoisonedBaseline fails every baseline cell of one graph:
// the graph must drop out of all curves (which stay positive from the other
// graphs) with one annotation per config.
func TestSpeedupCurvesPoisonedBaseline(t *testing.T) {
	threads := []int{1, 11}
	traceFor := func(gi, ci, tt int) *mic.Trace {
		if gi == 2 && tt == 1 {
			panic(fmt.Errorf("graph %d baseline dead", gi))
		}
		return testTrace(400)
	}
	series, errs, _ := speedupCurves(nil, mic.KNF(), testConfigs, []string{"", ""},
		3, threads, traceFor)
	for _, s := range series {
		for i, v := range s.Values {
			if v <= 0 {
				t.Errorf("%s at t=%d: value %v, want > 0", s.Label, s.Threads[i], v)
			}
		}
	}
	if len(errs) != len(testConfigs) {
		t.Fatalf("%d annotations, want one per config (%d): %v", len(errs), len(testConfigs), errs)
	}
	for _, e := range errs {
		if e.Graph != 2 || e.Threads != 1 {
			t.Errorf("annotation %+v does not pin graph 2's baseline", e)
		}
	}
}

// TestHarnessRetriesTransientFault arms a one-shot injected fault and checks
// Retries >= 1 absorbs it: the cell succeeds on the second attempt and the
// sweep carries no annotation.
func TestHarnessRetriesTransientFault(t *testing.T) {
	h := &Harness{Retries: 2}
	in := fault.New(1).EnableAt("cell", 1)
	v, attempts, err := h.cell(func() float64 {
		if err := in.FireErr("cell"); err != nil {
			panic(err)
		}
		return 7
	})
	if err != nil {
		t.Fatalf("cell failed despite retry budget: %v", err)
	}
	if v != 7 || attempts != 2 {
		t.Errorf("got v=%v attempts=%d, want v=7 attempts=2", v, attempts)
	}

	// A deterministic (non-transient) failure is not retried.
	calls := 0
	_, attempts, err = h.cell(func() float64 {
		calls++
		panic(errors.New("deterministic bug"))
	})
	if err == nil || attempts != 1 || calls != 1 {
		t.Errorf("non-transient failure: err=%v attempts=%d calls=%d, want 1 attempt", err, attempts, calls)
	}

	// With no budget the transient fault surfaces with its marker intact.
	in2 := fault.New(1).EnableAt("cell", 1)
	_, _, err = (*Harness)(nil).cell(func() float64 {
		if err := in2.FireErr("cell"); err != nil {
			panic(err)
		}
		return 7
	})
	if !fault.IsTransient(err) {
		t.Errorf("unretried fault %v lost its transient marker", err)
	}
}

// TestSpeedupCurvesCancelledMidSweep cancels the harness context from inside
// a known cell and checks the cancellation contract at every processor
// count: cells are claimed in sweep order and a claimed cell finishes, so
// what ran is a prefix of the sweep; nothing is claimed after the context
// ended (the cells behind the cancelling one wait for it, so each of the
// other workers holds at most one); every point whose cells were all claimed
// stands, the points after it read 0, and exactly one annotation marks the
// cutoff.
func TestSpeedupCurvesCancelledMidSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	threads := []int{11, 21, 31, 41} // no 1: every t = 1 lookup is a baseline cell
	const graphs, cutAt = 3, 13      // the cancelling cell: config 1, t = 11, graph 1
	index := func(gi, ci, tt int) int {
		return (ci*len(threads)+slices.Index(threads, tt))*graphs + gi
	}
	for _, procs := range procCounts {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		cut := make(chan struct{})
		var mu sync.Mutex
		ran := map[int]bool{}
		traceFor := func(gi, ci, tt int) *mic.Trace {
			if tt == 1 {
				return testTrace(300)
			}
			i := index(gi, ci, tt)
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			switch {
			case i == cutAt:
				cancel()
				close(cut)
			case i > cutAt:
				<-cut
			}
			return testTrace(300)
		}
		h := &Harness{Ctx: ctx, team: sched.NewTeam(procs)}
		series, errs, _ := speedupCurves(h, mic.KNF(), testConfigs, []string{"", ""},
			graphs, threads, traceFor)
		h.team.Close()

		claimed := len(ran)
		for i := 0; i < claimed; i++ {
			if !ran[i] {
				t.Fatalf("GOMAXPROCS %d: %d cells ran but not cell %d: not claimed in sweep order", procs, claimed, i)
			}
		}
		if claimed <= cutAt || claimed > cutAt+procs {
			t.Errorf("GOMAXPROCS %d: %d cells claimed, want %d..%d (none after the context ended)",
				procs, claimed, cutAt+1, cutAt+procs)
		}
		if len(series) != len(testConfigs) {
			t.Fatalf("%d series, want %d even on abort", len(series), len(testConfigs))
		}
		for ci, s := range series {
			for ti, v := range s.Values {
				whole := index(graphs-1, ci, threads[ti]) < claimed
				if whole != (v > 0) {
					t.Errorf("GOMAXPROCS %d: config %d t=%d: value %v with %d cells claimed (a wholly claimed point stands, any other reads 0)",
						procs, ci, threads[ti], v, claimed)
				}
			}
		}
		if len(errs) != 1 || errs[0].Graph != -1 || !errors.Is(errs[0], context.Canceled) {
			t.Errorf("GOMAXPROCS %d: annotations %v, want exactly the cutoff", procs, errs)
		}
	}
}

// countdownCtx is a context that ends after a fixed number of Err polls: the
// harness polls once per claim, so it cuts a sweep off mid-way, wherever the
// cells are made, at any processor count.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAblCancelledMidSweep cuts an ablation off mid-way: since its cells go
// through the figures' runner, the points before the cutoff stand (they read
// what an uncut run reads), the rest read 0, in the ablation's own sweep
// order, and exactly one annotation marks it.
func TestAblCancelledMidSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s, err := NewSuite(8)
	if err != nil {
		t.Fatal(err)
	}
	want := AblChunkSize(s, mic.KNF())
	for _, procs := range procCounts {
		runtime.GOMAXPROCS(procs)
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(90) // of 154 claims and a few polls more per loop
		got, err := ByID("abl-chunk", s.WithHarness(&Harness{Ctx: ctx}), mic.KNF(), mic.HostXeon())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Errors) != 1 || got.Errors[0].Graph != -1 || !errors.Is(got.Errors[0], context.Canceled) {
			t.Errorf("GOMAXPROCS %d: annotations %v, want exactly the cutoff", procs, got.Errors)
		}
		stood, cutoff := 0, false
		for xi := range want.Series[0].Values { // chunk by chunk, then thread count by thread count
			for si := range want.Series {
				switch v := got.Series[si].Values[xi]; {
				case v == 0:
					cutoff = true
				case cutoff || v != want.Series[si].Values[xi]:
					t.Errorf("GOMAXPROCS %d: %s at chunk %d reads %v (uncut %v, cutoff passed: %v)", procs,
						got.Series[si].Label, got.Series[si].Threads[xi], v, want.Series[si].Values[xi], cutoff)
				default:
					stood++
				}
			}
		}
		if stood == 0 || !cutoff {
			t.Errorf("GOMAXPROCS %d: %d points stood, cutoff seen: %v; want some of each", procs, stood, cutoff)
		}
	}
}

// TestAblPoisonedCell poisons one cell of an ablation's curve: it is
// annotated, drops out of its point's mean, and the rest of the series stands.
func TestAblPoisonedCell(t *testing.T) {
	threads := []int{1, 11, 21}
	boom := errors.New("poisoned trace")
	exp := &Experiment{ID: "abl-test"}
	h := &Harness{team: sched.NewTeam(2)}
	defer h.team.Close()
	vals := exp.speedup(h, mic.KNF(), testConfigs[0], "curve", 3, threads, func(gi, tt int) *mic.Trace {
		if gi == 1 && tt == 11 {
			panic(boom)
		}
		return testTrace(500 * (gi + 1))
	})
	for i, v := range vals {
		if v <= 0 {
			t.Errorf("t=%d: value %v, want > 0 (the curve must continue around the poisoned cell)", threads[i], v)
		}
	}
	if len(exp.Errors) != 1 {
		t.Fatalf("%d annotations, want 1: %v", len(exp.Errors), exp.Errors)
	}
	if e := exp.Errors[0]; e.Experiment != "abl-test" || e.Series != "curve" || e.Graph != 1 || e.Threads != 11 || !errors.Is(e, boom) {
		t.Errorf("annotation %+v does not pin the poisoned cell", e)
	}
}

// TestRunByIDCancelled checks a cancelled harness context short-circuits
// into an annotated placeholder rather than an error or a panic.
func TestRunByIDCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Suite{Harness: &Harness{Ctx: ctx}}
	exp, err := RunByID("fig1a", s, nil, nil)
	if err != nil {
		t.Fatalf("RunByID: %v", err)
	}
	if exp.ID != "fig1a" || len(exp.Errors) != 1 || !errors.Is(exp.Errors[0], context.Canceled) {
		t.Errorf("placeholder %+v does not carry the cancellation", exp)
	}
}

// TestRunManyUnknownID checks unknown experiment IDs come back as annotated
// placeholders so a batch always has one entry per request.
func TestRunManyUnknownID(t *testing.T) {
	s := &Suite{}
	exps := RunMany([]string{"no-such-experiment"}, s, nil, nil)
	if len(exps) != 1 {
		t.Fatalf("%d experiments, want 1", len(exps))
	}
	if exps[0].ID != "no-such-experiment" || len(exps[0].Errors) == 0 {
		t.Errorf("unknown ID not reported as annotated placeholder: %+v", exps[0])
	}
}
