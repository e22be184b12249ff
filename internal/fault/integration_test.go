package fault_test

import (
	"errors"
	"path/filepath"
	"testing"

	"micgraph/internal/fault"
	"micgraph/internal/gen"
	"micgraph/internal/graphio"
	"micgraph/internal/sched"
)

// TestSchedHookTeamPanicSurfacesAsForEError checks the full chain the
// acceptance criteria require: an injected worker panic placed at an exact
// call index fires inside a Team loop, is contained by the runtime, and
// comes back from ForE as a *sched.PanicError whose cause is the *Fault —
// deterministically, run after run.
func TestSchedHookTeamPanicSurfacesAsForEError(t *testing.T) {
	run := func() (error, int64) {
		in := fault.New(42).EnableAt("team/chunk/panic", 4)
		team := sched.NewTeam(3)
		defer team.Close()
		team.SetInject(in.SchedHook(0))
		err := team.ForE(100, sched.ForOptions{Policy: sched.Dynamic, Chunk: 5},
			func(lo, hi, w int) {})
		return err, in.Fired("team/chunk/panic")
	}

	err, fired := run()
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ForE returned %v, want *sched.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	var f *fault.Fault
	if !errors.As(err, &f) {
		t.Fatalf("cause of %v is not a *fault.Fault", err)
	}
	if f.Site != "team/chunk/panic" || f.Call != 4 {
		t.Errorf("fault fired at %s call %d, want team/chunk/panic call 4", f.Site, f.Call)
	}
	if !fault.IsTransient(err) {
		t.Error("injected fault not recognised as transient through the PanicError")
	}
	if fired != 1 {
		t.Errorf("site fired %d times, want 1", fired)
	}

	// Deterministic replay: an identical run fails identically.
	err2, _ := run()
	var f2 *fault.Fault
	if !errors.As(err2, &f2) || f2.Site != f.Site || f2.Call != f.Call {
		t.Errorf("replay produced %v, want the same fault as %v", err2, err)
	}
}

// TestSchedHookPoolTaskPanic does the same through the work-stealing pool's
// task boundary.
func TestSchedHookPoolTaskPanic(t *testing.T) {
	in := fault.New(7).EnableAt("pool/task/panic", 3)
	pool := sched.NewPool(2)
	defer pool.Close()
	pool.SetInject(in.SchedHook(0))
	err := pool.RunCtx(nil, func(c *sched.Ctx) {
		for i := 0; i < 10; i++ {
			c.Spawn(func(cc *sched.Ctx) {})
		}
	})
	var f *fault.Fault
	if !errors.As(err, &f) {
		t.Fatalf("RunCtx returned %v, want an injected *fault.Fault cause", err)
	}
	if f.Site != "pool/task/panic" {
		t.Errorf("fault fired at %s, want pool/task/panic", f.Site)
	}
}

// TestInjectedTruncationFailsLoadCleanly writes a real binary graph file,
// then loads it through an injector that truncates the stream at the second
// read: Load must fail with an error (no panic, no partial graph), and the
// same file must still load cleanly without the injector.
func TestInjectedTruncationFailsLoadCleanly(t *testing.T) {
	g := gen.Grid2D(64, 64)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graphio.WriteFile(path, g, graphio.Binary, nil); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	// The loader buffers reads, so the first Read call can swallow the
	// whole file; truncating call 1 guarantees the stream ends early.
	in := fault.New(7).EnableAt("graphio/read/truncate", 1)
	got, err := graphio.Load(path, "", 0, in)
	if err == nil {
		t.Fatal("Load succeeded despite injected truncation")
	}
	if got != nil {
		t.Errorf("Load returned a graph (%d vertices) alongside %v",
			got.NumVertices(), err)
	}

	// Without injection the very same file is intact.
	g2, err := graphio.Load(path, "", 0, nil)
	if err != nil {
		t.Fatalf("clean Load failed: %v", err)
	}
	if !g.Equal(g2) {
		t.Error("clean round trip lost the graph")
	}
}

// TestInjectedReadErrIsTransient checks a read-error fault propagates out of
// the loader still recognisable as transient, which is what the experiment
// harness's retry path keys on.
func TestInjectedReadErrIsTransient(t *testing.T) {
	g := gen.Grid2D(4, 4)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graphio.WriteFile(path, g, graphio.Binary, nil); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	in := fault.New(3).EnableAt("graphio/read/err", 1)
	_, err := graphio.Load(path, "", 0, in)
	if err == nil {
		t.Fatal("Load succeeded despite injected read error")
	}
	if !fault.IsTransient(err) {
		t.Errorf("injected read error %v lost its transient marker", err)
	}
	// The retry convention: a second identical attempt advances the call
	// counter past the armed index and succeeds.
	if _, err := graphio.Load(path, "", 0, in); err != nil {
		t.Errorf("retry after one-shot fault failed: %v", err)
	}
}

// TestDeterministicStreams checks the seed contract: same seed, same
// per-site call sequence → identical decisions; and the streams of two
// sites are independent, so consulting one never perturbs the other.
func TestDeterministicStreams(t *testing.T) {
	decisions := func(in *fault.Injector, interleave bool) []bool {
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Fire("a")
			if interleave {
				in.Fire("b") // foreign-site traffic must not matter
			}
		}
		return out
	}
	a := decisions(fault.New(99).Enable("a", 0.3), false)
	b := decisions(fault.New(99).Enable("a", 0.3).Enable("b", 0.5), true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged (%v vs %v) under interleaved traffic", i, a[i], b[i])
		}
	}
	fired := 0
	for _, d := range a {
		if d {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("rate 0.3 fired %d/%d times; stream looks degenerate", fired, len(a))
	}
}
