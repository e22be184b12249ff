package load

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"micgraph/internal/kernels"
	"micgraph/internal/serve"
)

func mustPhases(t *testing.T, s string) []PhaseSpec {
	t.Helper()
	p, err := ParsePhases(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParsePhases(t *testing.T) {
	p := mustPhases(t, "steady,dur=10s,rps=25;sweep,dur=12s,rps=10,end=40;burst,dur=10s,rps=15,mult=8,at=0.5,width=0.2;steady,dur=20s,rps=5,name=night")
	if len(p) != 4 {
		t.Fatalf("got %d phases", len(p))
	}
	if p[0].Kind != PhaseSteady || p[0].Duration != 10*time.Second || p[0].RPS != 25 {
		t.Errorf("steady = %+v", p[0])
	}
	if p[1].EndRPS != 40 {
		t.Errorf("sweep end = %v", p[1].EndRPS)
	}
	if p[2].Mult != 8 || p[2].At != 0.5 || p[2].Width != 0.2 {
		t.Errorf("burst = %+v", p[2])
	}
	if p[3].Name != "night" {
		t.Errorf("named phase = %+v", p[3])
	}
	for _, bad := range []string{
		"", "warp,dur=1s,rps=5", "steady,dur=1s", "steady,rps=5",
		"steady,dur=1s,rps=5,wat=7", "sweep,dur=1s,rps=5", "burst,dur=1s,rps=5,width=0",
		"diurnal,dur=1s,rps=5",
		// Non-finite fields, and phases over the arrival limit: each of
		// these once left Synthesize running forever.
		"steady,dur=1s,rps=NaN", "steady,dur=1s,rps=Inf", "sweep,dur=1s,rps=1,end=NaN",
		"burst,dur=1s,rps=1,mult=Inf", "burst,dur=1s,rps=1,at=NaN", "burst,dur=1s,rps=1,width=Inf",
		"steady,dur=1s,rps=1e12", "sweep,dur=1s,rps=1,end=2e6", "burst,dur=1000s,rps=500,mult=4",
	} {
		if _, err := ParsePhases(bad); err == nil {
			t.Errorf("ParsePhases(%q) accepted", bad)
		}
	}
}

// TestSynthesizeLowRate checks that a mean gap far beyond the phase ends
// the phase: it once overflowed Duration and scheduled requests at
// negative offsets.
func TestSynthesizeLowRate(t *testing.T) {
	tr := Synthesize(1, mustPhases(t, "steady,dur=1s,rps=1e-12;steady,dur=1s,rps=1e4"), Mix{Kernel: 1}, "")
	for _, r := range tr.Requests {
		if r.Phase == 0 || r.OffsetNS < time.Second || r.OffsetNS >= tr.Duration() {
			t.Fatalf("request %d in phase %d at %v, want phase 1 within [1s, 2s)", r.Index, r.Phase, r.OffsetNS)
		}
	}
	if n := len(tr.Requests); n < 9000 || n > 11000 {
		t.Errorf("second phase drew %d requests, want about 1e4", n)
	}
}

func TestRateShapes(t *testing.T) {
	sweep := mustPhases(t, "sweep,dur=10s,rps=10,end=40")[0]
	if got := sweep.rateAt(0); got != 10 {
		t.Errorf("sweep start rate = %v", got)
	}
	if got := sweep.rateAt(5 * time.Second); got != 25 {
		t.Errorf("sweep mid rate = %v", got)
	}
	burst := mustPhases(t, "burst,dur=10s,rps=15,mult=8,at=0.5,width=0.2")[0]
	peak := burst.rateAt(5 * time.Second)
	edge := burst.rateAt(0)
	if peak < 100 || peak > 15*8 {
		t.Errorf("burst peak rate = %v, want ~120", peak)
	}
	if edge >= peak/2 {
		t.Errorf("burst edge rate %v not well below peak %v", edge, peak)
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	phases := mustPhases(t, "steady,dur=5s,rps=20;burst,dur=5s,rps=10,mult=6")
	mix := Mix{Kernel: 0.8, Sweep: 0.1, Export: 0.1}
	var a, b, c bytes.Buffer
	if err := Synthesize(42, phases, mix, "/tmp/x").WriteLog(&a); err != nil {
		t.Fatal(err)
	}
	if err := Synthesize(42, phases, mix, "/tmp/x").WriteLog(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different trace logs")
	}
	if err := Synthesize(43, phases, mix, "/tmp/x").WriteLog(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical trace logs")
	}

	tr := Synthesize(42, phases, mix, "/tmp/x")
	if len(tr.Requests) == 0 {
		t.Fatal("no requests synthesized")
	}
	last := time.Duration(-1)
	drawn := map[string]bool{}
	for _, r := range tr.Requests {
		drawn[r.Spec.Kind+"/"+r.Spec.Variant] = true
		if r.OffsetNS < last {
			t.Fatalf("offsets not monotonic at request %d", r.Index)
		}
		last = r.OffsetNS
		if r.OffsetNS >= tr.Duration() {
			t.Fatalf("request %d scheduled past trace end", r.Index)
		}
		if err := validSpec(r.Spec); err != nil {
			t.Fatalf("request %d: %v", r.Index, err)
		}
	}
	// The kernel share of the mix reaches every parallel entry of the table.
	for _, e := range kernels.Table() {
		if e.Variant != kernels.Seq && !drawn[e.Kind+"/"+e.Variant] {
			t.Errorf("trace never submits %s/%s", e.Kind, e.Variant)
		}
	}
	// ~20rps x 5s + ~burst(10rps base, mult 6) x 5s: about 100 + 100ish.
	if n := len(tr.Requests); n < 100 || n > 400 {
		t.Errorf("synthesized %d requests, outside plausible range", n)
	}
}

// validSpec round-trips the spec through the server's own validation.
func validSpec(spec serve.JobSpec) error {
	s := serve.New(serve.Config{Workers: 1})
	defer s.Drain(context.Background())
	j, err := s.Submit(spec, "")
	if err != nil {
		return err
	}
	j.Cancel()
	<-j.Done()
	return nil
}

func TestParseMixAndSLOs(t *testing.T) {
	m, err := ParseMix("kernel=0.8,sweep=0.15,export=0.05")
	if err != nil || m.Kernel != 0.8 || m.Sweep != 0.15 || m.Export != 0.05 {
		t.Fatalf("mix = %+v, err %v", m, err)
	}
	for _, bad := range []string{
		"kernel", "blob=1", "kernel=-1", "kernel=0,sweep=0,export=0",
		"kernel=NaN", "kernel=1,export=Inf", "sweep=-Inf",
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}

	rules, err := ParseSLOs("steady:p99<=250ms;drop_rate<=0.05;burst:error_rate<=0")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 || rules[0].Phase != "steady" || rules[0].Metric != "p99" ||
		rules[0].Value != float64(250*time.Millisecond) || rules[1].Phase != "" {
		t.Fatalf("rules = %+v", rules)
	}
	for _, bad := range []string{"p99>=1s", "zoom<=1", "p99<=fast", "drop_rate<=lots"} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) accepted", bad)
		}
	}
	if rs, err := ParseSLOs(""); err != nil || len(rs) != 0 {
		t.Errorf("empty slo spec: %v, %v", rs, err)
	}
}

func TestEvaluateSLOs(t *testing.T) {
	rep := &Report{Phases: []PhaseReport{
		{Name: "steady", DropRate: 0.01},
		{Name: "burst", DropRate: 0.4},
	}}
	rep.Phases[0].Client.Latency.Count = 50
	rep.Phases[0].Client.Latency.P99NS = int64(100 * time.Millisecond)
	rep.Phases[1].Client.Latency.Count = 50
	rep.Phases[1].Client.Latency.P99NS = int64(900 * time.Millisecond)

	rules, _ := ParseSLOs("steady:p99<=250ms;drop_rate<=0.05;ghost:p50<=1s")
	res := EvaluateSLOs(rules, rep)
	// steady p99 passes; drop_rate applies to both phases (steady passes,
	// burst fails); the rule naming a missing phase fails explicitly.
	if len(res) != 4 {
		t.Fatalf("got %d results: %+v", len(res), res)
	}
	if !res[0].Passed || !res[1].Passed || res[2].Passed || res[3].Passed {
		t.Errorf("results = %+v", res)
	}
	if SLOsPassed(res) {
		t.Error("SLOsPassed over a violation")
	}
	if res[3].Observed != "no such phase" {
		t.Errorf("missing-phase observed = %q", res[3].Observed)
	}

	// A latency rule over a phase with zero terminal jobs must fail — an
	// empty histogram reports p99=0 and would otherwise pass any gate.
	empty := &Report{Phases: []PhaseReport{{Name: "steady"}}}
	rules, _ = ParseSLOs("steady:p99<=1ns")
	if res := EvaluateSLOs(rules, empty); SLOsPassed(res) || res[0].Observed != "no samples" {
		t.Errorf("empty-phase latency rule = %+v", res)
	}
	// Rate rules still evaluate normally on an empty phase (0 <= bound).
	rules, _ = ParseSLOs("steady:drop_rate<=0.1")
	if res := EvaluateSLOs(rules, empty); !SLOsPassed(res) {
		t.Errorf("empty-phase rate rule = %+v", res)
	}
}

// TestReplayIntegration drives a short synthesized trace against an
// in-process serve.Server over HTTP and checks the report's internal
// accounting: every scheduled arrival lands in exactly one outcome bucket,
// latency histogram counts match terminal jobs, server spans arrive with
// exact per-phase attribution, and the conservation law holds.
func TestReplayIntegration(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2, KernelWorkers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	phases := mustPhases(t, "steady,dur=400ms,rps=60;burst,dur=300ms,rps=40,mult=6,at=0.5,width=0.2")
	trace := Synthesize(7, phases, Mix{Kernel: 0.9, Export: 0.1}, t.TempDir())
	if len(trace.Requests) == 0 {
		t.Fatal("empty trace")
	}

	rep, err := Replay(context.Background(), Config{Targets: []string{ts.URL}, Clients: 8}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("got %d phase reports", len(rep.Phases))
	}
	var scheduled int64
	for _, p := range rep.Phases {
		scheduled += p.Scheduled
		if p.Scheduled != p.Sent+p.Dropped {
			t.Errorf("phase %s: scheduled %d != sent %d + dropped %d", p.Name, p.Scheduled, p.Sent, p.Dropped)
		}
		if p.Sent != p.Accepted+p.Rejected+p.Errors {
			t.Errorf("phase %s: sent %d != accepted %d + rejected %d + errors %d",
				p.Name, p.Sent, p.Accepted, p.Rejected, p.Errors)
		}
		terminal := p.Succeeded + p.Failed + p.Cancelled
		if p.Client.Latency.Count != terminal || p.Client.Service.Count != terminal {
			t.Errorf("phase %s: latency counts %d/%d != terminal %d",
				p.Name, p.Client.Latency.Count, p.Client.Service.Count, terminal)
		}
		for _, span := range spanNames {
			if got := p.Server[span].Count; got != terminal {
				t.Errorf("phase %s: server span %s count %d != terminal %d", p.Name, span, got, terminal)
			}
		}
		if terminal > 0 {
			total := p.Server["total"]
			sum := p.Server["queue_wait"].SumNS + p.Server["cache_load"].SumNS +
				p.Server["exec"].SumNS + p.Server["stream_flush"].SumNS
			if sum > total.SumNS {
				t.Errorf("phase %s: span sums %d exceed total %d", p.Name, sum, total.SumNS)
			}
		}
	}
	if int(scheduled) != len(trace.Requests) {
		t.Errorf("scheduled %d != trace requests %d", scheduled, len(trace.Requests))
	}
	if rep.Phases[0].Succeeded == 0 {
		t.Error("steady phase completed no jobs")
	}
	if err := rep.Conserved(); err != nil {
		t.Error(err)
	}
	if rep.Server.Latency["total"].Count == 0 {
		t.Error("server aggregate latency histograms empty")
	}

	// SLO wiring end to end: a generous gate passes, an impossible one
	// does not.
	pass, _ := ParseSLOs("steady:p99<=10m")
	if res := EvaluateSLOs(pass, rep); !SLOsPassed(res) {
		t.Errorf("generous SLO failed: %+v", res)
	}
	impossible, _ := ParseSLOs("steady:p99<=1ns")
	if res := EvaluateSLOs(impossible, rep); SLOsPassed(res) {
		t.Error("impossible SLO passed")
	}

	var summary strings.Builder
	rep.SLO = EvaluateSLOs(pass, rep)
	rep.WriteSummary(&summary)
	if !strings.Contains(summary.String(), "steady") || !strings.Contains(summary.String(), "server totals") {
		t.Errorf("summary missing expected content:\n%s", summary.String())
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"queue_wait"`)) {
		t.Error("JSON report missing server span histograms")
	}
}

// TestReplayMultiTarget spreads one trace over two daemons and checks the
// final scrape's per-target accounting: both targets are keyed, both
// admitted jobs, their totals sum to the report's, and the sum conserves.
func TestReplayMultiTarget(t *testing.T) {
	var urls []string
	for range 2 {
		s := serve.New(serve.Config{Workers: 2, KernelWorkers: 1, QueueDepth: 8})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Drain(context.Background())
		urls = append(urls, ts.URL)
	}

	trace := Synthesize(7, mustPhases(t, "steady,dur=300ms,rps=60"), Mix{Kernel: 1}, t.TempDir())
	if len(trace.Requests) < 4 {
		t.Fatalf("trace of %d requests cannot reach both targets", len(trace.Requests))
	}
	rep, err := Replay(context.Background(), Config{Targets: urls, Clients: 8}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Conserved(); err != nil {
		t.Error(err)
	}
	per := rep.Server.PerTarget
	if len(per) != 2 {
		t.Fatalf("per_target = %+v, want both targets", per)
	}
	var sum serve.JobTotals
	for _, u := range urls {
		tot, ok := per[u]
		if !ok {
			t.Fatalf("per_target has no entry for %s: %+v", u, per)
		}
		if tot.Accepted == 0 {
			t.Errorf("target %s admitted no job: %+v", u, tot)
		}
		sum.Add(tot)
	}
	if sum != rep.Server.JobsTotal {
		t.Errorf("per_target sums to %+v, jobs_total is %+v", sum, rep.Server.JobsTotal)
	}
	if len(rep.Server.Unreachable) != 0 {
		t.Errorf("unreachable = %v", rep.Server.Unreachable)
	}
}
