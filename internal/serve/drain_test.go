package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"micgraph/internal/fault"
	"micgraph/internal/graphio"
	"micgraph/internal/kernels"
)

// TestServeDrainCancelsQueuedJobs pins the drain contract for
// queued-but-unstarted jobs: Drain cancels them, each streams a terminal
// error line and counts into the cancelled total — none runs, none
// vanishes, and the drain wait is bounded by the job already executing.
//
// The hook makes the pin sharp: the running job blocks until released,
// every queued job blocks until its context is cancelled. Under the old
// drain behaviour (run the queued tail to completion) the queued jobs
// would block forever and Drain would hang; with cancellation it returns
// promptly.
func TestServeDrainCancelsQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	s.hookExec = func(ctx context.Context, j *Job) bool {
		if j.ID == "job-000001" {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return true
		}
		<-ctx.Done() // queued jobs hang unless drain cancels them
		return true
	}

	spec := JobSpec{Kind: kernels.BFS, Graph: GraphSpec{Suite: "pwtk", Scale: 8}}
	first, err := s.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	deadlineWait(t, func() bool { return s.Queue().Stats().Running == 1 })
	var queued []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	deadlineWait(t, func() bool { return s.Queue().Draining() })
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain with a queued tail = %v (queued jobs were not cancelled)", err)
	}

	<-first.Done()
	if got := first.Status(); got != StatusSucceeded {
		t.Errorf("running job after drain = %s, want succeeded", got)
	}
	for _, j := range queued {
		select {
		case <-j.Done():
		default:
			t.Fatalf("queued job %s still non-terminal after drain", j.ID)
		}
		if got := j.Status(); got != StatusCancelled {
			t.Errorf("queued job %s after drain = %s, want cancelled", j.ID, got)
		}
		lines := jsonLines(t, string(j.Result.Bytes()))
		if len(lines) == 0 || lines[len(lines)-1]["type"] != "error" {
			t.Errorf("queued job %s stream missing terminal error line: %v", j.ID, lines)
		}
	}

	tot := s.Totals()
	if tot.Accepted != 4 || tot.Succeeded != 1 || tot.Cancelled != 3 || tot.InFlight != 0 {
		t.Errorf("totals after drain = %+v", tot)
	}
}

// TestServeExportJob runs the export kind end to end: the daemon loads a
// suite graph through its cache and serialises it to disk; the written
// file round-trips through the loaders.
func TestServeExportJob(t *testing.T) {
	s := New(Config{Workers: 1, KernelWorkers: 2})
	defer s.Drain(context.Background())

	out := filepath.Join(t.TempDir(), "pwtk.mtx")
	j, err := s.Submit(JobSpec{Kind: KindExport,
		Graph: GraphSpec{Suite: "pwtk", Scale: 8}, Output: out}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.Status() != StatusSucceeded {
		t.Fatalf("export job = %s (%s)", j.Status(), j.Err())
	}
	lines := jsonLines(t, string(j.Result.Bytes()))
	if len(lines) != 1 || lines[0]["type"] != "result" || lines[0]["kind"] != "export" ||
		lines[0]["format"] != "mtx" {
		t.Fatalf("export stream = %v", lines)
	}
	g, err := graphio.ReadFile(out, nil)
	if err != nil {
		t.Fatalf("exported file does not round-trip: %v", err)
	}
	if float64(g.NumVertices()) != lines[0]["vertices"].(float64) {
		t.Errorf("round-trip vertices = %d, result line says %v",
			g.NumVertices(), lines[0]["vertices"])
	}
}

// TestServeExportWriteFault pins the atomic-write failure contract under
// injection: a firing graphio/write/err site fails the export job and
// leaves the destination path untouched (absent, not truncated); the next
// export of the same graph — same cache entry, next site call — succeeds.
func TestServeExportWriteFault(t *testing.T) {
	in := fault.New(7)
	in.EnableAt("graphio/write/err", 1)
	s := New(Config{Workers: 1, KernelWorkers: 2, Injector: in})
	defer s.Drain(context.Background())

	out := filepath.Join(t.TempDir(), "pwtk.bin")
	spec := JobSpec{Kind: KindExport, Graph: GraphSpec{Suite: "pwtk", Scale: 8}, Output: out}
	j1, err := s.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	if j1.Status() != StatusFailed {
		t.Fatalf("fault-injected export = %s, want failed", j1.Status())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("failed export left %s behind (stat err %v): atomic replace broken", out, err)
	}

	j2, err := s.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if j2.Status() != StatusSucceeded {
		t.Fatalf("export after transient write fault = %s (%s)", j2.Status(), j2.Err())
	}
	if _, err := graphio.ReadFile(out, nil); err != nil {
		t.Errorf("exported file does not round-trip: %v", err)
	}
}
