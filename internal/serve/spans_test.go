package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"micgraph/internal/kernels"
	"micgraph/internal/telemetry"
)

// stepClock is a deterministic telemetry.Clock: every Now() advances one
// fixed step, so any two reads are distinct and strictly ordered no matter
// which goroutine makes them.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newStepClock(step time.Duration) *stepClock {
	return &stepClock{t: time.Unix(1_700_000_000, 0), step: step}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// TestJobSpans runs one kernel job under an injected step clock and checks
// the latency breakdown end to end: all spans stamped, strictly from the
// fake clock (multiples of the step), and the sub-spans sum to at most the
// total — the invariant the e2e latency-probe asserts over chaos runs.
func TestJobSpans(t *testing.T) {
	clk := newStepClock(time.Millisecond)
	s := New(Config{Workers: 1, KernelWorkers: 2, Clock: clk})
	defer s.Drain(context.Background())

	j, err := s.Submit(JobSpec{Kind: kernels.Coloring, Graph: GraphSpec{Suite: "pwtk", Scale: 8}}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if got := j.Status(); got != StatusSucceeded {
		t.Fatalf("status = %s (%s)", got, j.Err())
	}

	v := j.View()
	if v.Spans == nil {
		t.Fatal("terminal job view has no spans")
	}
	sp := *v.Spans
	for name, ns := range map[string]int64{
		"queue": sp.QueueNS, "cache": sp.CacheNS, "exec": sp.ExecNS,
		"flush": sp.FlushNS, "total": sp.TotalNS,
	} {
		if ns <= 0 {
			t.Errorf("%s span = %d, want > 0 (every stamped interval spans at least one clock step)", name, ns)
		}
		if ns%int64(time.Millisecond) != 0 {
			t.Errorf("%s span = %d, not a multiple of the step: a wall-clock read leaked into the span path", name, ns)
		}
	}
	if sum := sp.QueueNS + sp.CacheNS + sp.ExecNS + sp.FlushNS; sum > sp.TotalNS {
		t.Errorf("span sum %d > total %d", sum, sp.TotalNS)
	}
}

// TestMetricszLatencyAndStats checks /metricsz's per-span latency
// histograms (one observation per terminal job) and the queue and cache
// blocks' watermark and hit/miss counts, which are the daemon's only copy of
// those facts.
func TestMetricszLatencyAndStats(t *testing.T) {
	s := New(Config{Workers: 1, KernelWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	_, v := post(t, ts, JobSpec{Kind: kernels.Coloring, Graph: GraphSpec{Suite: "pwtk", Scale: 8}})
	wait(t, ts, v.ID)
	_, v = post(t, ts, JobSpec{Kind: kernels.Coloring, Graph: GraphSpec{Suite: "pwtk", Scale: 8}})
	wait(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Latency map[string]telemetry.HistogramSnapshot `json:"latency"`
		Queue   QueueStats                             `json:"queue"`
		Cache   CacheStats                             `json:"cache"`
		Gauges  json.RawMessage                        `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{"queue_wait", "cache_load", "exec", "stream_flush", "total"} {
		h, ok := m.Latency[span]
		if !ok {
			t.Fatalf("latency block missing %q", span)
		}
		if h.Count != 2 {
			t.Errorf("latency[%q].count = %d, want 2 (one observation per terminal job)", span, h.Count)
		}
	}
	if m.Latency["total"].P99NS <= 0 {
		t.Error("total latency histogram has no p99")
	}
	// Two jobs on one graph: the second load hits the cache, and at least
	// one job must have been observed running.
	if m.Cache.Hits < 1 || m.Cache.Misses < 1 {
		t.Errorf("cache = hits %d misses %d, want >= 1 each", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Queue.RunningMax < 1 {
		t.Errorf("queue.running_max = %d, want >= 1", m.Queue.RunningMax)
	}
	if m.Gauges != nil {
		t.Errorf("/metricsz restates queue and cache in a gauges block: %s", m.Gauges)
	}
}
