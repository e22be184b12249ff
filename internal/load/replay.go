package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"micgraph/internal/serve"
	"micgraph/internal/telemetry"
)

// Config wires a replay run. Zero values take the documented defaults.
type Config struct {
	// Targets are the daemons under load, e.g. "http://127.0.0.1:8377".
	// Several (cluster entry nodes) share the trace round-robin by request
	// index: request i submits to (and polls) Targets[i % len(Targets)].
	// The replayer's accounting scrapes every target's local /metricsz and
	// sums the lifetime totals, which preserves the conservation check
	// because each shard's totals satisfy the law independently.
	Targets []string
	// Clients bounds concurrent in-flight requests (default 64). The
	// replayer is open-loop: arrivals fire on the trace schedule no matter
	// how slow the daemon is, and an arrival that finds every client busy
	// is shed and counted as dropped rather than queued client-side —
	// queueing belongs to the daemon, where it is measured.
	Clients int
	// Clock is the replayer's time source (default telemetry.System). Every
	// client-side latency is measured on it.
	Clock telemetry.Clock
	// Sleep pauses the dispatch loop (default time.Sleep); injectable so
	// tests can compress the schedule.
	Sleep func(time.Duration)
	// Logf, when set, receives coarse progress lines (phase transitions).
	Logf func(format string, args ...any)
}

const (
	// pollInterval is the job-status poll cadence.
	pollInterval = 25 * time.Millisecond
	// grace bounds how long after the last scheduled arrival the replayer
	// waits for still-running jobs before abandoning them.
	grace = 30 * time.Second
)

func (c Config) withDefaults() Config {
	for i, t := range c.Targets {
		c.Targets[i] = strings.TrimRight(t, "/")
	}
	if c.Clients <= 0 {
		c.Clients = 64
	}
	if c.Clock == nil {
		c.Clock = telemetry.System
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// spanNames orders the server span histograms everywhere they appear.
var spanNames = []string{"queue_wait", "cache_load", "exec", "stream_flush", "total"}

// phaseAcc accumulates one phase's outcomes while the replay runs.
type phaseAcc struct {
	mu                                  sync.Mutex
	scheduled, sent, accepted, rejected int64
	dropped, errs                       int64
	succeeded, failed, cancelled        int64
	latency                             *telemetry.Histogram // scheduled arrival -> terminal
	service                             *telemetry.Histogram // request sent -> terminal
	server                              map[string]*telemetry.Histogram
	shards                              map[string]int64 // terminal jobs by serving shard
}

func newPhaseAcc() *phaseAcc {
	a := &phaseAcc{
		latency: telemetry.NewHistogram(),
		service: telemetry.NewHistogram(),
		server:  make(map[string]*telemetry.Histogram, len(spanNames)),
		shards:  make(map[string]int64),
	}
	for _, n := range spanNames {
		a.server[n] = telemetry.NewHistogram()
	}
	return a
}

// observeSpans folds a terminal job's server-reported latency breakdown
// into the phase. This is exact per-phase attribution: the spans arrive on
// the job's own status document, so a job scheduled in the burst phase is
// counted against the burst phase even if it finishes later.
func (a *phaseAcc) observeSpans(sp serve.Spans) {
	a.server["queue_wait"].ObserveNS(sp.QueueNS)
	a.server["cache_load"].ObserveNS(sp.CacheNS)
	a.server["exec"].ObserveNS(sp.ExecNS)
	a.server["stream_flush"].ObserveNS(sp.FlushNS)
	a.server["total"].ObserveNS(sp.TotalNS)
}

// replayer is one run's shared state.
type replayer struct {
	cfg   Config
	trace *Trace
	accs  []*phaseAcc
	sem   chan struct{}
	wg    sync.WaitGroup
}

// Replay drives the trace against the daemon and aggregates the report.
// The context aborts the whole run (in-flight pollers included).
func Replay(ctx context.Context, cfg Config, trace *Trace) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("load: no target to replay against")
	}
	r := &replayer{
		cfg:   cfg,
		trace: trace,
		accs:  make([]*phaseAcc, len(trace.Phases)),
		sem:   make(chan struct{}, cfg.Clients),
	}
	for i := range r.accs {
		r.accs[i] = newPhaseAcc()
	}
	if _, err := r.scrape(ctx, true); err != nil {
		return nil, fmt.Errorf("load: daemon not reachable before replay: %w", err)
	}

	start := cfg.Clock.Now()
	pollCtx, pollCancel := context.WithCancel(ctx)
	defer pollCancel()

	phase := -1
	for i := range trace.Requests {
		req := &trace.Requests[i]
		if ctx.Err() != nil {
			break
		}
		if req.Phase != phase {
			phase = req.Phase
			p := trace.Phases[phase]
			cfg.Logf("phase %s (%s): %.0f rps for %s", p.Name, p.Kind, p.RPS, p.Duration)
		}
		target := start.Add(req.OffsetNS)
		if d := target.Sub(cfg.Clock.Now()); d > 0 {
			cfg.Sleep(d)
		}
		acc := r.accs[req.Phase]
		acc.mu.Lock()
		acc.scheduled++
		acc.mu.Unlock()
		select {
		case r.sem <- struct{}{}:
		default:
			// Pool exhausted: shed. An open-loop generator never queues
			// client-side — that would be coordinated omission by stealth.
			acc.mu.Lock()
			acc.dropped++
			acc.mu.Unlock()
			continue
		}
		base := cfg.Targets[i%len(cfg.Targets)]
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer func() { <-r.sem }()
			r.run(pollCtx, base, req, target)
		}()
	}

	// Bounded tail: give still-running jobs grace to reach a terminal
	// status, then abandon the waits (the daemon keeps running them; the
	// conservation check in CI still accounts for every accepted job).
	finished := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(grace):
		pollCancel()
		<-finished
	case <-ctx.Done():
		pollCancel()
		<-finished
	}

	final, err := r.scrape(context.WithoutCancel(ctx), false)
	if err != nil {
		return nil, fmt.Errorf("load: final metrics scrape: %w", err)
	}
	return r.report(final), ctx.Err()
}

// run executes one request end to end against base: submit, classify the
// admission outcome, poll to terminal, record latencies, server spans and
// the serving shard.
func (r *replayer) run(ctx context.Context, base string, req *Request, target time.Time) {
	acc := r.accs[req.Phase]
	body, err := json.Marshal(req.Spec)
	if err != nil {
		panic(err) // specs are synthesized; marshalling cannot fail
	}
	sent := r.cfg.Clock.Now()
	acc.mu.Lock()
	acc.sent++
	acc.mu.Unlock()

	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		r.bump(&acc.errs, acc)
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		r.bump(&acc.errs, acc)
		return
	}
	var view serve.JobView
	decErr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		r.bump(&acc.rejected, acc)
		return
	case resp.StatusCode != http.StatusAccepted || decErr != nil:
		r.bump(&acc.errs, acc)
		return
	}
	r.bump(&acc.accepted, acc)

	view, err = r.await(ctx, base, view.ID)
	if err != nil {
		r.bump(&acc.errs, acc)
		return
	}
	now := r.cfg.Clock.Now()
	acc.mu.Lock()
	switch view.Status {
	case serve.StatusSucceeded:
		acc.succeeded++
	case serve.StatusFailed:
		acc.failed++
	case serve.StatusCancelled:
		acc.cancelled++
	}
	if view.Shard != "" {
		acc.shards[view.Shard]++
	}
	acc.mu.Unlock()
	// Latency from the *scheduled* arrival, so client-side dispatch delay
	// counts against the service (no coordinated omission); service time
	// from the actual send for comparison.
	acc.latency.Observe(now.Sub(target))
	acc.service.Observe(now.Sub(sent))
	if view.Spans != nil {
		acc.observeSpans(*view.Spans)
	}
}

func (r *replayer) bump(field *int64, acc *phaseAcc) {
	acc.mu.Lock()
	*field++
	acc.mu.Unlock()
}

// await polls the job (via the same base it was submitted through) until
// it reaches a terminal status or ctx ends.
func (r *replayer) await(ctx context.Context, base, id string) (serve.JobView, error) {
	poll := time.NewTicker(pollInterval)
	defer poll.Stop()
	for {
		select {
		case <-ctx.Done():
			return serve.JobView{}, ctx.Err()
		case <-poll.C:
		}
		var view serve.JobView
		if err := serve.GetJSON(ctx, base+"/jobs/"+id, &view); err != nil {
			return serve.JobView{}, err
		}
		switch view.Status {
		case serve.StatusSucceeded, serve.StatusFailed, serve.StatusCancelled:
			return view, nil
		}
	}
}

// scrape fetches every target's local metrics (?scope=local keeps a
// cluster node from fanning out — the replayer does its own summation)
// and sums their lifetime totals. When strict, any unreachable target
// fails the scrape; otherwise dead targets are recorded and skipped — each
// reachable shard's totals satisfy the conservation law independently, so
// the sum still does. The latency histogram block is kept only for a
// single-target run (percentiles do not merge honestly), the per-target
// totals only for a multi-target one.
func (r *replayer) scrape(ctx context.Context, strict bool) (ServerFinal, error) {
	var f ServerFinal
	perTarget := map[string]serve.JobTotals{}
	for _, base := range r.cfg.Targets {
		var m serve.Metrics
		if err := serve.GetJSON(ctx, base+"/metricsz?scope=local", &m); err != nil {
			if strict {
				return f, fmt.Errorf("load: %s: %w", base, err)
			}
			f.Unreachable = append(f.Unreachable, base)
			continue
		}
		perTarget[base] = m.JobsTotal
		f.JobsTotal.Add(m.JobsTotal)
		if len(r.cfg.Targets) == 1 {
			f.Latency = m.Latency
		}
	}
	if len(perTarget) == 0 {
		return f, fmt.Errorf("load: no target reachable (%s)", strings.Join(f.Unreachable, ", "))
	}
	if len(r.cfg.Targets) > 1 {
		f.PerTarget = perTarget
	}
	return f, nil
}
