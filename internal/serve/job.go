package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"micgraph/internal/core"
	"micgraph/internal/graphio"
	"micgraph/internal/kernels"
	"micgraph/internal/telemetry"
)

// Job kinds accepted by POST /jobs. The four kernel kinds and their
// variants are the rows of the kernels table.
const (
	KindBFS        = kernels.BFS        // one BFS traversal
	KindColoring   = kernels.Coloring   // one speculative coloring run
	KindComponents = kernels.Components // one connected-components run
	KindIrregular  = kernels.Irregular  // the micbench irregular kernel
	KindSweep      = "sweep"            // experiment sweeps (core.RunMany)
	KindExport     = "export"           // serialise a loaded graph to a file on the daemon host
)

// GraphSpec names the input graph of a kernel job: either a file path on
// the daemon's filesystem or a builtin suite graph with a shrink scale —
// the same -file/-graph/-scale convention the CLIs use.
type GraphSpec struct {
	File  string `json:"file,omitempty"`
	Suite string `json:"suite,omitempty"`
	Scale int    `json:"scale,omitempty"`
}

// Key is the cache key of the spec.
func (g GraphSpec) Key() string {
	if g.File != "" {
		return "file:" + g.File
	}
	return fmt.Sprintf("suite:%s@%d", g.Suite, g.Scale)
}

// SuiteKey is the cache key of the generated experiment suite at scale.
func SuiteKey(scale int) string { return fmt.Sprintf("sweep:suite@%d", scale) }

// JobSpec is the body of POST /jobs.
type JobSpec struct {
	Kind  string    `json:"kind"`
	Graph GraphSpec `json:"graph,omitempty"`

	// Kernel options (bfs, coloring, irregular).
	Variant string `json:"variant,omitempty"` // bfs variant or coloring/irregular runtime
	Source  int    `json:"source,omitempty"`  // bfs source; 0 or absent = |V|/2 as in the paper
	Chunk   int    `json:"chunk,omitempty"`   // chunk/grain/block size
	Iters   int    `json:"iters,omitempty"`   // irregular kernel iterations

	// Sweep options: experiment IDs (empty = all) and the suite shrink
	// scale shared by every experiment of the job.
	Experiments []string `json:"experiments,omitempty"`
	SweepScale  int      `json:"sweep_scale,omitempty"`

	// Export options: destination path on the daemon's filesystem and
	// serialization format ("mtx", "bin" or "el"; default by extension).
	// The write is atomic (graphio.WriteFile): a failed or fault-injected
	// export leaves the destination untouched, never truncated.
	Output string `json:"output,omitempty"`
	Format string `json:"format,omitempty"`

	// TimeoutMS bounds the job's run time (0 = the server default). The
	// server clamps it to its configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalize fills defaults and validates the spec.
func (sp *JobSpec) normalize() error {
	switch sp.Kind {
	case KindBFS, KindColoring, KindComponents, KindIrregular:
		if sp.Graph.File == "" && sp.Graph.Suite == "" {
			return fmt.Errorf("serve: %s job needs graph.file or graph.suite", sp.Kind)
		}
		if sp.Graph.Scale <= 0 {
			sp.Graph.Scale = 4
		}
		// Unknown variants are admitted: the job fails when it runs.
		if sp.Variant == "" {
			sp.Variant = kernels.Default(sp.Kind)
		}
		def := kernels.Defaults()
		if sp.Chunk <= 0 {
			sp.Chunk = def.Chunk
		}
		if sp.Iters <= 0 {
			sp.Iters = def.Iters
		}
	case KindExport:
		if sp.Graph.File == "" && sp.Graph.Suite == "" {
			return fmt.Errorf("serve: export job needs graph.file or graph.suite")
		}
		if sp.Graph.Scale <= 0 {
			sp.Graph.Scale = 4
		}
		if sp.Output == "" {
			return fmt.Errorf("serve: export job needs an output path")
		}
		if sp.Format != "" {
			if _, err := graphio.ParseFormat(sp.Format); err != nil {
				return err
			}
		}
	case KindSweep:
		if sp.SweepScale <= 0 {
			sp.SweepScale = 4
		}
		known := map[string]bool{}
		for _, id := range core.AllIDs() {
			known[id] = true
		}
		for _, id := range sp.Experiments {
			if !known[id] {
				return fmt.Errorf("serve: unknown experiment id %q", id)
			}
		}
	case "":
		return fmt.Errorf("serve: job spec needs a kind (bfs, coloring, components, irregular, sweep, export)")
	default:
		return fmt.Errorf("serve: unknown job kind %q", sp.Kind)
	}
	if sp.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout_ms")
	}
	return nil
}

// PlacementKey is the data key a cluster routes a job by: the graph cache
// key for kernel and export jobs, the suite cache key for sweeps. Jobs
// that share a key share cache residency, so routing by it maximises hit
// rates and keeps a cache miss confined to the shard that owns the key.
func (sp JobSpec) PlacementKey() string {
	if sp.Kind == KindSweep {
		scale := sp.SweepScale
		if scale <= 0 {
			scale = 4
		}
		return SuiteKey(scale)
	}
	// Mirror normalize()'s scale default so a spec routed before admission
	// and the cache key the owner computes after it always agree.
	g := sp.Graph
	if g.File == "" && g.Scale <= 0 {
		g.Scale = 4
	}
	return g.Key()
}

// Job statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusSucceeded = "succeeded"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Spans is a job's latency breakdown, stamped on the server's injected
// clock and exposed in job status JSON once the job is terminal. QueueNS
// covers admission to worker pickup; CacheNS, ExecNS and FlushNS are
// disjoint sub-intervals of the run (graph/suite cache fetch, kernel or
// sweep execution, result-stream writes); TotalNS covers admission to
// terminal. Because the sub-spans never overlap and all read one clock,
//
//	QueueNS + CacheNS + ExecNS + FlushNS <= TotalNS
//
// holds for every job — the invariant the e2e latency-probe asserts.
type Spans struct {
	QueueNS int64 `json:"queue_ns"`
	CacheNS int64 `json:"cache_ns"`
	ExecNS  int64 `json:"exec_ns"`
	FlushNS int64 `json:"flush_ns"`
	TotalNS int64 `json:"total_ns"`
}

// Job is one admitted unit of work. Result lines stream into Result while
// the job runs; status transitions are queued -> running -> one of
// succeeded/failed/cancelled.
type Job struct {
	ID     string
	Spec   JobSpec
	Result *Stream

	clock telemetry.Clock // the server's injected time source

	// shard and requestID are the cluster-trace identity stamped on every
	// result line (both empty on a single-node daemon — lines stay
	// byte-identical to the pre-cluster format).
	shard     string
	requestID string

	mu       sync.Mutex
	status   string
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	spans    Spans
	ctx      context.Context // job-lifetime context, live from submission
	cancel   context.CancelFunc
	done     chan struct{}
}

func newJob(id string, spec JobSpec, clock telemetry.Clock, shard, requestID string) *Job {
	if clock == nil {
		clock = telemetry.System
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:        id,
		Spec:      spec,
		Result:    NewStream(),
		clock:     clock,
		shard:     shard,
		requestID: requestID,
		status:    StatusQueued,
		created:   clock.Now(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	j.Result.SetStamp(shard, requestID)
	return j
}

// RequestID returns the propagated submission trace ID ("" when none).
func (j *Job) RequestID() string { return j.requestID }

// now reads the job's injected clock (the runner's timestamp source).
func (j *Job) now() time.Time { return j.clock.Now() }

// addSpanNS accumulates an elapsed sub-interval into one span field,
// clamping negative durations (possible under a misbehaving fake clock)
// to zero.
func (j *Job) addSpanNS(dst *int64, d time.Duration) {
	if d < 0 {
		d = 0
	}
	j.mu.Lock()
	*dst += int64(d)
	j.mu.Unlock()
}

func (j *Job) addCache(d time.Duration) { j.addSpanNS(&j.spans.CacheNS, d) }
func (j *Job) addExec(d time.Duration)  { j.addSpanNS(&j.spans.ExecNS, d) }
func (j *Job) addFlush(d time.Duration) { j.addSpanNS(&j.spans.FlushNS, d) }

// Spans returns a copy of the latency breakdown. All fields are final
// once the job is terminal.
func (j *Job) Spans() Spans {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spans
}

// Status returns the current status string.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the failure message ("" while running or on success).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done is closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel asks a queued or running job to stop. Queued jobs are still
// drained by a worker, which observes the cancelled context immediately
// and finishes them as cancelled.
func (j *Job) Cancel() { j.cancel() }

func (j *Job) start() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = j.clock.Now()
	if d := j.started.Sub(j.created); d > 0 {
		j.spans.QueueNS = int64(d)
	}
	j.mu.Unlock()
}

func (j *Job) finish(status, errMsg string) {
	j.mu.Lock()
	j.status = status
	j.err = errMsg
	j.finished = j.clock.Now()
	if d := j.finished.Sub(j.created); d > 0 {
		j.spans.TotalNS = int64(d)
	}
	j.mu.Unlock()
	j.Result.Close()
	close(j.done)
}

// JobView is the JSON shape of GET /jobs/{id}.
type JobView struct {
	ID string `json:"id"`
	// Shard names the cluster node that owns (ran) the job; empty on a
	// single-node daemon.
	Shard string `json:"shard,omitempty"`
	// RequestID is the propagated X-Micserved-Request-ID of the submission
	// that created the job, when one was; it joins the entry node's access
	// trace to the owning shard's result stream.
	RequestID   string  `json:"request_id,omitempty"`
	Kind        string  `json:"kind"`
	Status      string  `json:"status"`
	Error       string  `json:"error,omitempty"`
	Created     string  `json:"created"`
	Started     string  `json:"started,omitempty"`
	Finished    string  `json:"finished,omitempty"`
	RunSeconds  float64 `json:"run_seconds,omitempty"`
	ResultBytes int     `json:"result_bytes"`
	ResultPath  string  `json:"result_path"`
	// Spans is the latency breakdown, present once the job is terminal
	// (all spans final by then).
	Spans *Spans `json:"spans,omitempty"`
}

// View snapshots the job for the status endpoint.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Shard:       j.shard,
		RequestID:   j.requestID,
		Kind:        j.Spec.Kind,
		Status:      j.status,
		Error:       j.err,
		Created:     j.created.UTC().Format(time.RFC3339Nano),
		ResultBytes: j.Result.Len(),
		ResultPath:  "/jobs/" + j.ID + "/result",
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
		v.RunSeconds = j.finished.Sub(j.started).Seconds()
		sp := j.spans
		v.Spans = &sp
	}
	return v
}
