package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"micgraph/internal/core"
	"micgraph/internal/fault"
	"micgraph/internal/kernels"
)

// post submits a spec and returns the HTTP status plus the decoded body.
func post(t *testing.T, ts *httptest.Server, spec JobSpec) (int, JobView) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, v
}

// wait polls a job until it reaches a terminal status.
func wait(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.Status {
		case StatusSucceeded, StatusFailed, StatusCancelled:
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// result fetches a job's full JSONL result body.
func result(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

func jsonLines(t *testing.T, raw string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for i, line := range strings.Split(strings.TrimRight(raw, "\n"), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("result line %d is not JSON: %v\n%s", i+1, err, line)
		}
		out = append(out, m)
	}
	return out
}

func TestServeKernelJob(t *testing.T) {
	s := New(Config{Workers: 1, KernelWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	code, v := post(t, ts, JobSpec{Kind: KindBFS, Graph: GraphSpec{Suite: "pwtk", Scale: 8}})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if fin := wait(t, ts, v.ID); fin.Status != StatusSucceeded {
		t.Fatalf("job = %+v", fin)
	}
	lines := jsonLines(t, result(t, ts, v.ID))
	if len(lines) != 2 || lines[0]["type"] != "result" || lines[1]["type"] != "counters" {
		t.Fatalf("result lines = %v", lines)
	}
	if lv, _ := lines[0]["levels"].(float64); lv < 2 {
		t.Errorf("BFS levels = %v", lines[0]["levels"])
	}

	// Same graph again: must be a cache hit, no second load.
	code, v2 := post(t, ts, JobSpec{Kind: KindColoring, Graph: GraphSpec{Suite: "pwtk", Scale: 8}})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if fin := wait(t, ts, v2.ID); fin.Status != StatusSucceeded {
		t.Fatalf("job = %+v", fin)
	}
	st := s.Cache().Stats()
	if st.Loads != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want one load and one hit", st)
	}
}

// TestServeHybridAndComponentsJobs covers the kernel variants added with
// the direction-optimizing BFS work: the "hybrid" bfs variant reports its
// per-direction level split, and the "components" job kind runs both
// parallel variants against the resident worker scratch.
func TestServeHybridAndComponentsJobs(t *testing.T) {
	s := New(Config{Workers: 1, KernelWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	code, v := post(t, ts, JobSpec{Kind: KindBFS, Variant: "hybrid", Graph: GraphSpec{Suite: "pwtk", Scale: 8}})
	if code != http.StatusAccepted {
		t.Fatalf("submit hybrid = %d", code)
	}
	if fin := wait(t, ts, v.ID); fin.Status != StatusSucceeded {
		t.Fatalf("hybrid job = %+v", fin)
	}
	lines := jsonLines(t, result(t, ts, v.ID))
	res := lines[0]
	if res["variant"] != "hybrid" {
		t.Fatalf("variant = %v", res["variant"])
	}
	lv, _ := res["levels"].(float64)
	td, _ := res["td_levels"].(float64)
	bu, _ := res["bu_levels"].(float64)
	if lv < 2 || td+bu != lv {
		t.Errorf("hybrid levels = %v, td = %v, bu = %v; want td+bu == levels >= 2", lv, td, bu)
	}

	for _, variant := range []string{"labelprop", "pointerjump"} {
		code, v := post(t, ts, JobSpec{Kind: KindComponents, Variant: variant, Graph: GraphSpec{Suite: "pwtk", Scale: 8}})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", variant, code)
		}
		if fin := wait(t, ts, v.ID); fin.Status != StatusSucceeded {
			t.Fatalf("%s job = %+v", variant, fin)
		}
		res := jsonLines(t, result(t, ts, v.ID))[0]
		if n, _ := res["components"].(float64); n < 1 {
			t.Errorf("%s components = %v", variant, res["components"])
		}
	}
}

// TestServeEveryTableEntry is the served-answer oracle: every entry of the
// kernels table, and each kind's default variant, is submitted over HTTP
// and its streamed "result" line must equal, byte for byte, the line of an
// in-process run of the same entry. One kernel worker on both sides keeps
// the speculative kernels (relaxed claims, coloring conflicts) free of
// run-to-run variation, so nothing has to be masked.
func TestServeEveryTableEntry(t *testing.T) {
	s := New(Config{Workers: 1, KernelWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())
	rt := kernels.NewRuntime(1)
	defer rt.Close()

	type submission struct {
		variant string // "" = the kind's default
		entry   kernels.Entry
	}
	var subs []submission
	for _, e := range kernels.Table() {
		subs = append(subs, submission{e.Variant, e})
		if e.Default {
			subs = append(subs, submission{"", e})
		}
	}
	if len(subs) != 18+4 {
		t.Fatalf("%d submissions, want the 18 table entries plus 4 defaults", len(subs))
	}
	for _, sub := range subs {
		e := sub.entry
		spec := JobSpec{Kind: e.Kind, Variant: sub.variant, Graph: GraphSpec{Suite: "pwtk", Scale: 8}}
		name := fmt.Sprintf("%s/%q", e.Kind, sub.variant)
		code, v := post(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit = %d", name, code)
		}
		if fin := wait(t, ts, v.ID); fin.Status != StatusSucceeded {
			t.Fatalf("%s: job = %+v", name, fin)
		}
		served, _, _ := strings.Cut(result(t, ts, v.ID), "\n")

		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		if spec.Variant != e.Variant {
			t.Fatalf("%s: normalized to variant %q, table default is %q", name, spec.Variant, e.Variant)
		}
		g, err := s.loadGraph(context.Background(), spec.Graph)
		if err != nil {
			t.Fatal(err)
		}
		p := spec.kernelParams(g)
		out, err := e.Run(context.Background(), rt, g, p)
		if err != nil {
			t.Fatalf("%s: in-process run: %v", name, err)
		}
		if err := e.Validate(g, p, out); err != nil {
			t.Fatalf("%s: in-process run invalid: %v", name, err)
		}
		want, err := json.Marshal(out.Line(e, g.String(), p))
		if err != nil {
			t.Fatal(err)
		}
		if served != string(want) {
			t.Errorf("%s: served result line differs from the in-process run:\n served %s\n    want %s", name, served, want)
		}
	}
}

// TestServeConcurrentSweepsShareOneLoad is the acceptance scenario: two
// concurrent sweep submissions against one daemon trigger exactly one
// suite generation (singleflight observed via cache stats) and both
// streams carry per-cell telemetry.
func TestServeConcurrentSweepsShareOneLoad(t *testing.T) {
	s := New(Config{Workers: 2, KernelWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	spec := JobSpec{Kind: KindSweep, SweepScale: 8, Experiments: []string{"fig4a"}}
	code1, v1 := post(t, ts, spec)
	code2, v2 := post(t, ts, spec)
	if code1 != http.StatusAccepted || code2 != http.StatusAccepted {
		t.Fatalf("submits = %d, %d", code1, code2)
	}
	fin1, fin2 := wait(t, ts, v1.ID), wait(t, ts, v2.ID)
	if fin1.Status != StatusSucceeded || fin2.Status != StatusSucceeded {
		t.Fatalf("jobs = %+v / %+v", fin1, fin2)
	}

	st := s.Cache().Stats()
	if st.Loads != 1 {
		t.Errorf("suite loaded %d times, want 1 (singleflight): %+v", st.Loads, st)
	}
	if st.Shared+st.Hits != 1 {
		t.Errorf("second sweep neither shared the in-flight load nor hit: %+v", st)
	}

	// Each stream carries one experiment line with the series WriteSVG
	// draws, then its cells with their simulator stats.
	for _, id := range []string{v1.ID, v2.ID} {
		var exps []ExperimentLine
		cells := 0
		for _, m := range jsonLines(t, result(t, ts, id)) {
			line, _ := json.Marshal(m)
			switch m["type"] {
			case "experiment":
				var el ExperimentLine
				if err := json.Unmarshal(line, &el); err != nil {
					t.Fatal(err)
				}
				exps = append(exps, el)
			case "cell":
				var cl CellLine
				if err := json.Unmarshal(line, &cl); err != nil {
					t.Fatal(err)
				}
				if cl.Stats.Phases == 0 {
					t.Fatal("cell telemetry missing SimStats")
				}
				cells++
			}
		}
		if len(exps) != 1 || exps[0].ID != "fig4a" {
			t.Fatalf("got %d experiments", len(exps))
		}
		if len(exps[0].Series) == 0 || cells == 0 {
			t.Errorf("experiment missing series/cells: %d/%d", len(exps[0].Series), cells)
		}
		// The streamed experiment renders.
		var svg bytes.Buffer
		e := &core.Experiment{ID: exps[0].ID, Title: exps[0].Title, Series: exps[0].Series, Rows: exps[0].Rows}
		if err := core.WriteSVG(&svg, e); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(svg.String(), "<svg") {
			t.Error("WriteSVG produced no SVG")
		}
	}
}

// TestServeBackpressure is the acceptance scenario: a submission against a
// full queue gets 429 + Retry-After while the earlier jobs are unaffected.
func TestServeBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.hookExec = func(ctx context.Context, j *Job) bool {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return true
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	spec := JobSpec{Kind: KindBFS, Graph: GraphSpec{Suite: "pwtk", Scale: 8}}
	code1, v1 := post(t, ts, spec) // occupies the worker
	// Wait until the worker picked it up so the queue slot is free.
	deadlineWait(t, func() bool { return s.Queue().Stats().Running == 1 })
	code2, v2 := post(t, ts, spec) // fills the queue
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code1 != http.StatusAccepted || code2 != http.StatusAccepted {
		t.Fatalf("submits = %d, %d", code1, code2)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	if fin := wait(t, ts, v1.ID); fin.Status != StatusSucceeded {
		t.Errorf("job 1 = %+v", fin)
	}
	if fin := wait(t, ts, v2.ID); fin.Status != StatusSucceeded {
		t.Errorf("job 2 = %+v", fin)
	}
}

// TestServeFaultIsolation is the acceptance scenario: an injected panic
// fails only the job that drew it; the daemon and subsequent jobs are
// untouched.
func TestServeFaultIsolation(t *testing.T) {
	in := fault.New(11)
	in.EnableAt("team/chunk/panic", 1) // first chunk boundary panics
	s := New(Config{Workers: 1, KernelWorkers: 2, Injector: in})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	spec := JobSpec{Kind: KindColoring, Variant: "openmp",
		Graph: GraphSpec{Suite: "pwtk", Scale: 8}}
	_, v1 := post(t, ts, spec)
	fin := wait(t, ts, v1.ID)
	if fin.Status != StatusFailed {
		t.Fatalf("injected job = %+v, want failed", fin)
	}
	if !strings.Contains(fin.Error, "fault") && !strings.Contains(fin.Error, "panic") {
		t.Errorf("failure does not name the fault: %q", fin.Error)
	}
	lines := jsonLines(t, result(t, ts, v1.ID))
	if len(lines) == 0 || lines[len(lines)-1]["type"] != "error" {
		t.Errorf("failed job stream missing error line: %v", lines)
	}

	// The daemon is alive and the next job succeeds (the site only fired
	// at call 1).
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after failed job: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	_, v2 := post(t, ts, spec)
	if fin := wait(t, ts, v2.ID); fin.Status != StatusSucceeded {
		t.Errorf("job after injected failure = %+v", fin)
	}
}

// TestServeGracefulDrain is the acceptance scenario: drain lets in-flight
// jobs finish, rejects new work, then completes.
func TestServeGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	s.hookExec = func(ctx context.Context, j *Job) bool {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return true
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Kind: KindBFS, Graph: GraphSpec{Suite: "pwtk", Scale: 8}}
	_, v1 := post(t, ts, spec)
	deadlineWait(t, func() bool { return s.Queue().Stats().Running == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	deadlineWait(t, func() bool { return s.Queue().Draining() })

	// Draining: health reports it, new submissions bounce with 503.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Status != "draining" {
		t.Errorf("healthz status = %q, want draining", health.Status)
	}
	body, _ := json.Marshal(spec)
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a job in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if fin := wait(t, ts, v1.ID); fin.Status != StatusSucceeded {
		t.Errorf("in-flight job after drain = %+v", fin)
	}
}

func TestServeBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	for _, body := range []string{
		`{`,
		`{"kind":"nope"}`,
		`{"kind":"bfs"}`,
		`{"kind":"sweep","experiments":["figZZ"]}`,
		`{"kind":"bfs","graph":{"suite":"pwtk"},"timeout_ms":-1}`,
		`{"kind":"sweep","experiments":["fig4a"],"retries":1}`, // unknown field
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", body, resp.StatusCode)
		}
	}
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServeMetricsz(t *testing.T) {
	s := New(Config{Workers: 1, KernelWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	_, v := post(t, ts, JobSpec{Kind: KindColoring, Graph: GraphSpec{Suite: "pwtk", Scale: 8}})
	wait(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Counters struct {
			Totals struct {
				ChunksClaimed int64 `json:"chunks_claimed"`
			} `json:"totals"`
		} `json:"counters"`
		Cache CacheStats     `json:"cache"`
		Queue QueueStats     `json:"queue"`
		Jobs  map[string]int `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Counters.Totals.ChunksClaimed == 0 {
		t.Error("scheduler counters not wired into the serving path")
	}
	if m.Cache.Loads != 1 || m.Queue.Completed != 1 || m.Jobs[StatusSucceeded] != 1 {
		t.Errorf("metricsz = %+v", m)
	}
}

// deadlineWait spins until cond holds (5s cap).
func deadlineWait(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeCancelQueuedJob checks DELETE on a queued job: the worker
// observes the already-cancelled context and finishes it as cancelled.
func TestServeCancelQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	s.hookExec = func(ctx context.Context, j *Job) bool {
		if j.Spec.Kind == KindBFS {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return true
		}
		return ctx.Err() != nil // queued coloring job: run normally unless cancelled
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	_, v1 := post(t, ts, JobSpec{Kind: KindBFS, Graph: GraphSpec{Suite: "pwtk", Scale: 8}})
	deadlineWait(t, func() bool { return s.Queue().Stats().Running == 1 })
	_, v2 := post(t, ts, JobSpec{Kind: KindColoring, Graph: GraphSpec{Suite: "pwtk", Scale: 8}})

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%s", ts.URL, v2.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	close(release)
	if fin := wait(t, ts, v2.ID); fin.Status != StatusCancelled {
		t.Errorf("cancelled queued job = %+v", fin)
	}
	if fin := wait(t, ts, v1.ID); fin.Status != StatusSucceeded {
		t.Errorf("running job = %+v", fin)
	}
}
