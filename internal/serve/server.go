package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"micgraph/internal/fault"
	"micgraph/internal/kernels"
	"micgraph/internal/mic"
	"micgraph/internal/telemetry"
)

// Config sizes the serving subsystem. Zero values take the documented
// defaults, so Server{} construction in tests stays terse.
type Config struct {
	// Workers is the number of queue workers, i.e. jobs in flight at once
	// (default 2). Each owns a resident sched.Team and sched.Pool.
	Workers int
	// KernelWorkers is the scheduler parallelism inside each job
	// (default 4).
	KernelWorkers int
	// QueueDepth bounds the number of admitted-but-not-running jobs
	// (default 16). A submit beyond it gets 429 + Retry-After.
	QueueDepth int
	// CacheBytes is the graph cache budget (default 1 GiB).
	CacheBytes int64
	// DefaultTimeout/MaxTimeout bound per-job run time (defaults 2m/10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the backpressure hint on 429 responses (default 1s).
	RetryAfter time.Duration

	// Injector, when set, flows fault injection through the service path:
	// graph loads read through it and every worker runtime gets its
	// SchedHook, so injected stalls and panics surface as per-job errors.
	Injector *fault.Injector
	// Stall is the injected stall duration for the sched hook (default
	// 10ms; only meaningful with an Injector).
	Stall time.Duration

	// KNF and Host are the simulated machines sweeps run on (defaults
	// mic.KNF() / mic.HostXeon()).
	KNF  *mic.Machine
	Host *mic.Machine

	// ShardID names this server inside a cluster. When set, job IDs are
	// prefixed "<shard>-" so they are globally unique and routable, every
	// result line is stamped with "shard" (and the submitting request's ID
	// when one was propagated), and JobView carries the shard. Empty for
	// the single-node daemon, whose behaviour stays byte-identical.
	ShardID string

	// Clock is the time source behind every timestamp the server stamps:
	// job creation/start/finish, latency spans, uptime (default
	// telemetry.System). Tests inject a fake to make spans deterministic;
	// micvet's wallclock analyzer keeps direct time.Now out of this
	// package so nothing bypasses it.
	Clock telemetry.Clock
}

// retainedJobs caps the jobs the server remembers; past it the oldest
// terminal jobs are forgotten first.
const retainedJobs = 1024

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.KernelWorkers <= 0 {
		c.KernelWorkers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 1 << 30
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Stall <= 0 {
		c.Stall = 10 * time.Millisecond
	}
	if c.KNF == nil {
		c.KNF = mic.KNF()
	}
	if c.Host == nil {
		c.Host = mic.HostXeon()
	}
	if c.Clock == nil {
		c.Clock = telemetry.System
	}
	return c
}

// latencySet aggregates every terminal job's spans into the shared
// fixed-bucket histograms /metricsz exports, one histogram per span so
// attribution stays separable. micload reports the end-of-run snapshot as
// its whole-run server view; its per-phase server-side histograms are built
// from each job's own spans, not from these.
type latencySet struct {
	queueWait *telemetry.Histogram
	cacheLoad *telemetry.Histogram
	exec      *telemetry.Histogram
	flush     *telemetry.Histogram
	total     *telemetry.Histogram
}

func newLatencySet() latencySet {
	return latencySet{
		queueWait: telemetry.NewHistogram(),
		cacheLoad: telemetry.NewHistogram(),
		exec:      telemetry.NewHistogram(),
		flush:     telemetry.NewHistogram(),
		total:     telemetry.NewHistogram(),
	}
}

func (l latencySet) observe(sp Spans) {
	l.queueWait.ObserveNS(sp.QueueNS)
	l.cacheLoad.ObserveNS(sp.CacheNS)
	l.exec.ObserveNS(sp.ExecNS)
	l.flush.ObserveNS(sp.FlushNS)
	l.total.ObserveNS(sp.TotalNS)
}

// snapshot returns the JSON shape of /metricsz's "latency" block.
func (l latencySet) snapshot() map[string]telemetry.HistogramSnapshot {
	return map[string]telemetry.HistogramSnapshot{
		"queue_wait":   l.queueWait.Snapshot(),
		"cache_load":   l.cacheLoad.Snapshot(),
		"exec":         l.exec.Snapshot(),
		"stream_flush": l.flush.Snapshot(),
		"total":        l.total.Snapshot(),
	}
}

// Server is the micserved daemon core: cache + queue + job registry +
// HTTP handlers, independent of the actual listener so tests drive it via
// httptest.
type Server struct {
	cfg      Config
	cache    *Cache
	queue    *Queue
	counters *telemetry.Counters
	lat      latencySet
	rts      []*kernels.Runtime // one per queue worker, resident for the server's lifetime
	started  time.Time

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order, for retention trimming
	seq    int64
	totals JobTotals // monotonic lifetime accounting, all mutated under mu

	// hookExec is a test seam: when set and it returns true, runJob skips
	// normal execution (the hook "ran" the job). Lets tests hold a worker
	// busy deterministically. Never set in production.
	hookExec func(ctx context.Context, j *Job) bool
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheBytes),
		counters: telemetry.NewCounters(cfg.KernelWorkers),
		lat:      newLatencySet(),
		jobs:     make(map[string]*Job),
		started:  cfg.Clock.Now(),
	}
	s.rts = make([]*kernels.Runtime, cfg.Workers)
	for i := range s.rts {
		rt := kernels.NewRuntime(cfg.KernelWorkers)
		rt.SetCounters(s.counters)
		if cfg.Injector != nil {
			hook := cfg.Injector.SchedHook(cfg.Stall)
			rt.Team.SetInject(hook)
			rt.Pool.SetInject(hook)
		}
		s.rts[i] = rt
	}
	s.queue = NewQueue(cfg.Workers, cfg.QueueDepth, s.exec)
	return s
}

// JobTotals is the lifetime job accounting exported as "jobs_total" by
// /metricsz. Every field is monotonic except InFlight, which is derived
// (Accepted minus terminal) inside the same critical section as every
// mutation, so each snapshot satisfies the conservation law exactly:
//
//	Submitted == Rejected + Succeeded + Failed + Cancelled + InFlight
//
// regardless of how many submits, cancels and completions are racing.
// Unlike the "jobs" by-status map (which counts only *retained* jobs and
// shrinks as retention trims old terminal jobs), these totals never
// forget, which is what lets a black-box oracle check that no accepted
// job ever vanishes without reaching a terminal status.
type JobTotals struct {
	// Submitted counts every POST /jobs attempt, accepted or not.
	Submitted int64 `json:"submitted"`
	// Rejected counts submits that were not admitted: validation
	// failures, queue-full 429s and draining 503s.
	Rejected int64 `json:"rejected"`
	// Accepted = Submitted - Rejected: jobs the daemon owes a terminal
	// status.
	Accepted  int64 `json:"accepted"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// InFlight is Accepted minus the terminal counts: jobs currently
	// queued or running. Zero once the daemon is idle or drained.
	InFlight int64 `json:"in_flight"`
}

// Add sums o into t field by field: totals that each satisfy the
// conservation law add up to totals that do.
func (t *JobTotals) Add(o JobTotals) {
	t.Submitted += o.Submitted
	t.Rejected += o.Rejected
	t.Accepted += o.Accepted
	t.Succeeded += o.Succeeded
	t.Failed += o.Failed
	t.Cancelled += o.Cancelled
	t.InFlight += o.InFlight
}

// Totals snapshots the lifetime job accounting coherently.
func (s *Server) Totals() JobTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.totals
	t.InFlight = t.Accepted - t.Succeeded - t.Failed - t.Cancelled
	return t
}

// Cache exposes the graph and suite cache (stats).
func (s *Server) Cache() *Cache { return s.cache }

// Queue exposes the job queue (stats).
func (s *Server) Queue() *Queue { return s.queue }

// Submit validates and admits a job, returning it (with its assigned ID)
// or the admission error (ErrQueueFull, ErrDraining, or a validation
// error). requestID is the X-Micserved-Request-ID value a cluster entry
// node stamped on the forwarded submission ("" when none was); it is
// echoed on the job's view and on every result line of a sharded job,
// which is what makes a cross-shard trace joinable in the JSONL logs.
func (s *Server) Submit(spec JobSpec, requestID string) (*Job, error) {
	if err := spec.normalize(); err != nil {
		s.mu.Lock()
		s.totals.Submitted++
		s.totals.Rejected++
		s.mu.Unlock()
		return nil, err
	}
	// Count the job accepted *before* handing it to the queue: a worker may
	// pick it up and finish it before queue.Submit even returns, and the
	// terminal counters must never run ahead of Accepted (that would make a
	// /metricsz snapshot show negative in-flight and break conservation).
	// A queue rejection rolls the provisional acceptance back into Rejected
	// in one critical section, so no snapshot ever sees the attempt
	// unaccounted.
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	if s.cfg.ShardID != "" {
		// Shard-prefixed IDs are globally unique across the cluster and
		// carry their owner, so any entry node can route by ID alone.
		id = s.cfg.ShardID + "-" + id
	}
	s.totals.Submitted++
	s.totals.Accepted++
	s.mu.Unlock()

	j := newJob(id, spec, s.cfg.Clock, s.cfg.ShardID, requestID)
	s.register(j)
	if err := s.queue.Submit(j); err != nil {
		s.unregister(id)
		s.mu.Lock()
		s.totals.Accepted--
		s.totals.Rejected++
		s.mu.Unlock()
		return nil, err
	}
	return j, nil
}

func (s *Server) register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	// Retention: forget the oldest terminal jobs beyond retainedJobs.
	// In-flight jobs are never forgotten, whatever their age.
	if len(s.order) > retainedJobs {
		kept := s.order[:0]
		excess := len(s.order) - retainedJobs
		for _, id := range s.order {
			old := s.jobs[id]
			terminal := false
			if old != nil {
				switch old.Status() {
				case StatusSucceeded, StatusFailed, StatusCancelled:
					terminal = true
				}
			}
			if excess > 0 && terminal {
				delete(s.jobs, id)
				excess--
				continue
			}
			kept = append(kept, id)
		}
		s.order = kept
	}
}

func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	if n := len(s.order); n > 0 && s.order[n-1] == id {
		s.order = s.order[:n-1]
	}
}

// JobByID returns a retained job.
func (s *Server) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// exec runs one job on worker w: per-job deadline, status transitions,
// error classification.
func (s *Server) exec(w int, j *Job) {
	timeout := s.cfg.DefaultTimeout
	if j.Spec.TimeoutMS > 0 {
		timeout = time.Duration(j.Spec.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()
	defer j.cancel() // release the job-lifetime context once terminal
	j.start()

	err := s.runJob(ctx, w, j)
	switch {
	case err == nil:
		s.finish(j, StatusSucceeded, "")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.Result.WriteLine(map[string]string{"type": "error", "error": err.Error()})
		s.finish(j, StatusCancelled, err.Error())
	default:
		j.Result.WriteLine(map[string]string{"type": "error", "error": err.Error()})
		s.finish(j, StatusFailed, err.Error())
	}
}

// finish moves j to a terminal status and books it into the lifetime
// totals. Every accepted job passes through here exactly once (exec is the
// only caller and each job is executed by exactly one worker), so the
// terminal counters tile Accepted exactly.
func (s *Server) finish(j *Job, status, errMsg string) {
	j.finish(status, errMsg)
	s.lat.observe(j.Spans())
	s.mu.Lock()
	switch status {
	case StatusSucceeded:
		s.totals.Succeeded++
	case StatusFailed:
		s.totals.Failed++
	case StatusCancelled:
		s.totals.Cancelled++
	}
	s.mu.Unlock()
}

// Drain shuts the serving path down without losing track of a single
// accepted job: admission stops (new submits get 503), queued-but-unstarted
// jobs are cancelled so each streams a terminal error line and counts into
// the cancelled total, in-flight jobs run to completion, and once
// everything admitted is terminal the worker runtimes are shut down.
// Cancelling the queued tail (rather than running it) is what bounds the
// drain wait by the jobs already executing — a full queue behind a slow
// job can no longer push a SIGTERM drain past its deadline, and no
// accepted job ever vanishes without a terminal status. Used by SIGTERM
// handling and tests.
func (s *Server) Drain(ctx context.Context) error {
	s.queue.BeginDrain()
	// Admission is now closed, so the set of queued jobs can only shrink:
	// cancel everything still waiting for a worker. A job that a worker
	// grabs between the status check and the cancel just runs (or observes
	// the cancelled context and finishes cancelled) — either way it reaches
	// a terminal status and is counted.
	s.mu.Lock()
	queued := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.Status() == StatusQueued {
			queued = append(queued, j)
		}
	}
	s.mu.Unlock()
	for _, j := range queued {
		j.Cancel()
	}
	err := s.queue.AwaitDrain(ctx)
	if err == nil {
		for _, rt := range s.rts {
			rt.Close()
		}
	}
	return err
}

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs             submit a job (202, 400, 429+Retry-After, 503)
//	GET    /jobs             list retained jobs
//	GET    /jobs/{id}        job status
//	DELETE /jobs/{id}        cancel a job
//	GET    /jobs/{id}/result stream results as JSONL (follows a running job)
//	GET    /healthz          liveness + drain state
//	GET    /metricsz         telemetry counters, cache, queue and job stats
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// RequestIDHeader carries a submission's trace ID across cluster hops:
// the entry node stamps it on the forwarded request, the owning shard
// echoes it on responses and result lines.
const RequestIDHeader = "X-Micserved-Request-ID"

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad job spec: %w", err))
		return
	}
	rid := r.Header.Get(RequestIDHeader)
	if rid != "" {
		w.Header().Set(RequestIDHeader, rid)
	}
	j, err := s.Submit(spec, rid)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After",
			strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, j.View())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			views = append(views, j.View())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	if rid := j.RequestID(); rid != "" {
		w.Header().Set(RequestIDHeader, rid)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	j.Result.WriteTo(r.Context(), w, flush)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.queue.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": s.cfg.Clock.Now().Sub(s.started).Seconds(),
		"queue":          s.queue.Stats(),
	})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	byStatus := map[string]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		byStatus[j.Status()]++
	}
	s.mu.Unlock()
	cache := s.cache.Stats()
	queue := s.queue.Stats()
	body := map[string]any{
		"uptime_seconds": s.cfg.Clock.Now().Sub(s.started).Seconds(),
		"counters":       s.counters.Snapshot(),
		"cache":          cache,
		"queue":          queue,
		"jobs":           byStatus,
		"jobs_total":     s.Totals(),
		"latency":        s.lat.snapshot(),
		// gauges is the capacity-tuning scrape block: current queue depth
		// and in-flight count with their high-water marks, next to the
		// cache's hit/miss/eviction counters, all in one flat map so load
		// harnesses sample one path instead of re-deriving from the nested
		// stats objects.
		"gauges": map[string]int64{
			"queue_depth":          int64(queue.Queued),
			"queue_depth_max":      int64(queue.QueuedMax),
			"jobs_running":         int64(queue.Running),
			"jobs_running_max":     int64(queue.RunningMax),
			"cache_hits":           cache.Hits,
			"cache_misses":         cache.Misses,
			"cache_evictions":      cache.Evictions,
			"cache_resident_bytes": cache.ResidentBytes,
		},
	}
	if s.cfg.ShardID != "" {
		body["shard"] = s.cfg.ShardID
	}
	writeJSON(w, http.StatusOK, body)
}
