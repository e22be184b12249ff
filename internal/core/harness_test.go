package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"micgraph/internal/fault"
	"micgraph/internal/graph"
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

// testSweep is a best-config sweep of testConfigs, each labelled by its
// String, over ng graphs on KNF.
func testSweep(ng int, threads []int) *sweep {
	sw := &sweep{m: mic.KNF(), threads: threads, played: threads, gis: make([]int, ng)}
	for _, cfg := range testConfigs {
		sw.lines = append(sw.lines, line{label: cfg.String(), cfg: cfg})
	}
	return sw
}

// book plays sw's cells under h on traceFor(graph, line, threads) and books
// them on a fresh experiment with the given id; for a self-relative sweep it
// also returns the runs.
func book(h *Harness, id string, sw *sweep, traceFor func(gi, li, t int) *mic.Trace) (*Experiment, []run) {
	h.sweepCells([]*sweep{sw}, func(_ *sweep, li, k, t int) *mic.Trace { return traceFor(k, li, t) })
	e := &Experiment{ID: id}
	if sw.self {
		return e, e.runs(h, sw)
	}
	e.best(h, sw)
	return e, nil
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
	exp, _ := book(nil, "test", testSweep(3, threads), traceFor)
	series, errs := exp.Series, exp.Errors

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
	again, _ := book(nil, "test", testSweep(3, threads), traceFor)
	series2 := again.Series
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
	exp, _ := book(nil, "test", testSweep(3, threads), traceFor)
	series, errs := exp.Series, exp.Errors
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
		exp, _ := book(h, "test", testSweep(graphs, threads), traceFor)
		series, errs := exp.Series, exp.Errors
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
// order, and exactly one annotation marks it. abl-chunk's one key is 7 trace
// tasks and 147 cells, one poll a claim and one more per worker and loop.
func TestAblCancelledMidSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s, err := NewSuite(8)
	if err != nil {
		t.Fatal(err)
	}
	want := byID(t, s, "abl-chunk")
	for _, procs := range procCounts {
		runtime.GOMAXPROCS(procs)
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(90) // of 154 claims and at most 16 polls more
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

// jsonOf renders one experiment as WriteJSON does.
func jsonOf(t *testing.T, e *Experiment) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Experiment{e}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sharedKeyIDs read two trace keys: fig1a and fig1b natural-order coloring,
// fig2 between them shuffled coloring, so the natural key runs first and
// plays fig1a's cells, then fig1b's.
var sharedKeyIDs = []string{"fig1a", "fig2", "fig1b"}

// TestSharedKeyCutOff cuts RunMany off inside a key that two experiments
// share, at every processor count: past the natural key's 7 trace tasks and
// fig1a's 294 cells, about 90 claims into fig1b's 196. An experiment whose
// every cell was claimed reads what an uncut run reads; every other carries
// exactly one cutoff annotation, and every point it kept is the uncut run's.
func TestSharedKeyCutOff(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s, err := NewSuite(8)
	if err != nil {
		t.Fatal(err)
	}
	want := RunMany(sharedKeyIDs, s, mic.KNF(), mic.HostXeon())
	for _, procs := range procCounts {
		runtime.GOMAXPROCS(procs)
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(7 + 294 + 100)
		got := RunMany(sharedKeyIDs, s.WithHarness(&Harness{Ctx: ctx}), mic.KNF(), mic.HostXeon())
		kept := 0
		for i, e := range got {
			if len(e.Errors) == 0 {
				if jsonOf(t, e) != jsonOf(t, want[i]) {
					t.Errorf("GOMAXPROCS %d: %s ran whole but reads differently from the uncut run", procs, e.ID)
				}
				continue
			}
			if len(e.Errors) != 1 || e.Errors[0].Graph != -1 || !errors.Is(e.Errors[0], context.Canceled) {
				t.Errorf("GOMAXPROCS %d: %s: annotations %v, want exactly the cutoff", procs, e.ID, e.Errors)
			}
			for _, sr := range e.Series {
				uncut := seriesByLabel(t, want[i], sr.Label)
				for ti, v := range sr.Values {
					if v != 0 && v != uncut.Values[ti] {
						t.Errorf("GOMAXPROCS %d: %s/%s at %d threads reads %v, uncut %v", procs, e.ID, sr.Label, sr.Threads[ti], v, uncut.Values[ti])
					}
					if v != 0 {
						kept++
					}
				}
			}
		}
		if len(got[0].Errors) != 0 || len(got[1].Errors) == 0 || len(got[2].Errors) == 0 || kept == 0 {
			t.Errorf("GOMAXPROCS %d: annotations %d/%d/%d, %d points kept past the cut: want the cut inside fig1b",
				procs, len(got[0].Errors), len(got[1].Errors), len(got[2].Errors), kept)
		}
	}
}

// TestSharedKeyPanic fails the build of the shuffled coloring key, which fig2
// and abl-bonus read: each of them carries the panic once, and fig1a, on the
// natural key, runs whole.
func TestSharedKeyPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s, err := NewSuite(8)
	if err != nil {
		t.Fatal(err)
	}
	want := jsonOf(t, RunMany([]string{"fig1a"}, s, mic.KNF(), mic.HostXeon())[0])
	s.derived.shuffled[3].get(func() *graph.Graph { return nil }) // its trace task panics
	for _, procs := range procCounts {
		runtime.GOMAXPROCS(procs)
		got := RunMany([]string{"fig1a", "fig2", "abl-bonus"}, s, mic.KNF(), mic.HostXeon())
		if jsonOf(t, got[0]) != want {
			t.Errorf("GOMAXPROCS %d: fig1a, on another key, did not run whole: %v", procs, got[0].Errors)
		}
		for _, e := range got[1:] {
			var re runtime.Error
			if len(e.Errors) != 1 || e.Errors[0].Graph != -1 || !errors.As(e.Errors[0], &re) {
				t.Errorf("GOMAXPROCS %d: %s: annotations %v, want the panic once", procs, e.ID, e.Errors)
			}
		}
	}
}

// TestAblPoisonedCell poisons one cell of a self-relative curve: it is
// annotated, drops out of its point's mean, and the rest of the series stands.
func TestAblPoisonedCell(t *testing.T) {
	threads := []int{1, 11, 21}
	boom := errors.New("poisoned trace")
	h := &Harness{team: sched.NewTeam(2)}
	defer h.team.Close()
	sw := &sweep{m: mic.KNF(), lines: []line{{label: "curve", cfg: testConfigs[0]}}, threads: threads, played: threads,
		gis: make([]int, 3), self: true}
	exp, runs := book(h, "abl-test", sw, func(gi, _, tt int) *mic.Trace {
		if gi == 1 && tt == 11 {
			panic(boom)
		}
		return testTrace(500 * (gi + 1))
	})
	for i, v := range runs[0].curve().Values {
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
