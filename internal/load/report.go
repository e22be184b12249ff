package load

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"micgraph/internal/serve"
	"micgraph/internal/telemetry"
)

// ClientLatency pairs the two client-side views of one phase: Latency is
// measured from each request's *scheduled* arrival (so dispatch backlog
// counts — no coordinated omission), Service from the moment the request
// actually went on the wire.
type ClientLatency struct {
	Latency telemetry.HistogramSnapshot `json:"latency"`
	Service telemetry.HistogramSnapshot `json:"service"`
}

// PhaseReport is one phase of a micload report: admission outcome
// counts and rates, client latency distributions, the server's span
// attribution (from the status documents of this phase's own jobs, so a
// job is always counted against the phase that scheduled it — queueing
// included, through each job's queue_wait span).
type PhaseReport struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"`
	StartNS    int64   `json:"start_ns"`
	DurationNS int64   `json:"duration_ns"`
	RPS        float64 `json:"rps"`

	Scheduled int64 `json:"scheduled"`
	Sent      int64 `json:"sent"`
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"` // 429 backpressure
	Dropped   int64 `json:"dropped"`  // shed at the client pool
	Errors    int64 `json:"errors"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`

	RejectRate float64 `json:"reject_rate"`
	DropRate   float64 `json:"drop_rate"`
	ErrorRate  float64 `json:"error_rate"`

	Client ClientLatency                          `json:"client"`
	Server map[string]telemetry.HistogramSnapshot `json:"server"`
	// Shards counts this phase's terminal jobs by the shard that served
	// them (from each job's status document); present only against a
	// cluster, where every job carries its serving shard.
	Shards map[string]int64 `json:"shards,omitempty"`
}

// ServerFinal is the daemon's own end-of-run view: lifetime job totals
// (the conservation law) and, against a single target, its aggregate
// latency histograms, scraped once after the replay settles.
type ServerFinal struct {
	JobsTotal serve.JobTotals                        `json:"jobs_total"`
	Latency   map[string]telemetry.HistogramSnapshot `json:"latency,omitempty"`
	// PerTarget breaks JobsTotal down by target endpoint on multi-target
	// (cluster) runs; each entry independently satisfies the conservation
	// law, which is why their sum (JobsTotal) does too.
	PerTarget map[string]serve.JobTotals `json:"per_target,omitempty"`
	// Unreachable lists targets the final scrape could not reach (a killed
	// shard); their totals are absent from JobsTotal.
	Unreachable []string `json:"unreachable,omitempty"`
}

// Report is the full document micload -out writes.
type Report struct {
	Tool            string        `json:"tool"` // "micload"
	Seed            uint64        `json:"seed"`
	Targets         []string      `json:"targets"` // the trace is spread round-robin across them
	Clients         int           `json:"clients"`
	TraceDurationNS int64         `json:"trace_duration_ns"`
	Requests        int           `json:"requests"`
	Phases          []PhaseReport `json:"phases"`
	Server          ServerFinal   `json:"server"`
	SLO             []SLOResult   `json:"slo,omitempty"`
}

// report assembles the final document from the per-phase accumulators.
func (r *replayer) report(final ServerFinal) *Report {
	rep := &Report{
		Tool:            "micload",
		Seed:            r.trace.Seed,
		Targets:         r.cfg.Targets,
		Clients:         r.cfg.Clients,
		TraceDurationNS: int64(r.trace.Duration()),
		Requests:        len(r.trace.Requests),
		Server:          final,
	}
	for i, p := range r.trace.Phases {
		acc := r.accs[i]
		acc.mu.Lock()
		pr := PhaseReport{
			Name:       p.Name,
			Kind:       p.Kind,
			StartNS:    int64(r.trace.PhaseStart(i)),
			DurationNS: int64(p.Duration),
			RPS:        p.RPS,
			Scheduled:  acc.scheduled,
			Sent:       acc.sent,
			Accepted:   acc.accepted,
			Rejected:   acc.rejected,
			Dropped:    acc.dropped,
			Errors:     acc.errs,
			Succeeded:  acc.succeeded,
			Failed:     acc.failed,
			Cancelled:  acc.cancelled,
		}
		if pr.Scheduled > 0 {
			pr.RejectRate = float64(pr.Rejected) / float64(pr.Scheduled)
			pr.DropRate = float64(pr.Dropped) / float64(pr.Scheduled)
			pr.ErrorRate = float64(pr.Errors) / float64(pr.Scheduled)
		}
		pr.Client = ClientLatency{
			Latency: acc.latency.Snapshot(),
			Service: acc.service.Snapshot(),
		}
		pr.Server = make(map[string]telemetry.HistogramSnapshot, len(spanNames))
		for _, n := range spanNames {
			pr.Server[n] = acc.server[n].Snapshot()
		}
		if len(acc.shards) > 0 {
			pr.Shards = make(map[string]int64, len(acc.shards))
			for s, c := range acc.shards {
				pr.Shards[s] = c
			}
		}
		acc.mu.Unlock()
		rep.Phases = append(rep.Phases, pr)
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func ms(ns int64) string {
	return fmt.Sprintf("%.1fms", float64(ns)/float64(time.Millisecond))
}

// WriteSummary writes the human-readable per-phase table.
func (rep *Report) WriteSummary(w io.Writer) {
	target := strings.Join(rep.Targets, ", ")
	if len(rep.Targets) > 1 {
		target = fmt.Sprintf("%d targets (%s)", len(rep.Targets), strings.Join(rep.Targets, ", "))
	}
	fmt.Fprintf(w, "micload: seed %d, %d requests over %s against %s (%d clients)\n",
		rep.Seed, rep.Requests, time.Duration(rep.TraceDurationNS), target, rep.Clients)
	fmt.Fprintf(w, "%-10s %6s %6s %5s %5s %5s | %9s %9s %9s | %9s %9s\n",
		"phase", "sched", "ok", "429", "drop", "err",
		"p50", "p99", "p999", "srv-queue", "srv-exec")
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "%-10s %6d %6d %5d %5d %5d | %9s %9s %9s | %9s %9s\n",
			p.Name, p.Scheduled, p.Succeeded, p.Rejected, p.Dropped, p.Errors+p.Failed,
			ms(p.Client.Latency.P50NS), ms(p.Client.Latency.P99NS), ms(p.Client.Latency.P999NS),
			ms(p.Server["queue_wait"].P99NS), ms(p.Server["exec"].P99NS))
	}
	t := rep.Server.JobsTotal
	fmt.Fprintf(w, "server totals: submitted %d = rejected %d + succeeded %d + failed %d + cancelled %d + in-flight %d\n",
		t.Submitted, t.Rejected, t.Succeeded, t.Failed, t.Cancelled, t.InFlight)
	for _, s := range rep.SLO {
		status := "ok"
		if !s.Passed {
			status = "VIOLATED"
		}
		fmt.Fprintf(w, "slo %-30s %s (observed %s)\n", s.Rule, status, s.Observed)
	}
}

// Conserved checks the server's lifetime totals against the conservation
// law the chaos oracle also enforces.
func (rep *Report) Conserved() error {
	t := rep.Server.JobsTotal
	if t.Submitted != t.Rejected+t.Succeeded+t.Failed+t.Cancelled+t.InFlight {
		return fmt.Errorf("load: conservation violated: submitted %d != rejected %d + succeeded %d + failed %d + cancelled %d + in_flight %d",
			t.Submitted, t.Rejected, t.Succeeded, t.Failed, t.Cancelled, t.InFlight)
	}
	return nil
}
