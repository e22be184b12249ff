package e2e

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"micgraph/internal/graphio"
)

// trackedJob is one accepted submission the oracle still owes checks for:
// its result stream must close, a corrupted-file job must not succeed, and
// a successful export must leave a loadable file (a failed one must not).
type trackedJob struct {
	id         string
	expectFail bool
	isExport   bool
	exportPath string
	f          *follower
}

// chaosRunner executes a generated script against live daemon incarnations
// while enforcing the oracle's invariants after every step.
type chaosRunner struct {
	t    tb
	bin  string
	cfg  daemonConfig
	out  string // $OUT: export target dir
	pool *filePool

	d       *daemon
	c       *client
	tracked []trackedJob
}

// runChaos is the oracle's entry point: generate the script for (seed, n),
// log it, then execute it, finishing with a quiesce and a clean SIGTERM
// drain whatever the script ended on.
func runChaos(t tb, seed uint64, n int) {
	t.Helper()
	script := genScript(seed, n)
	t.Logf("chaos seed=%d actions=%d script:\n%s", seed, n, scriptLog(script))

	dir, err := os.MkdirTemp("", "chaos-*")
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	defer os.RemoveAll(dir)
	outDir := dir + "/out"
	poolDir := dir + "/pool"
	for _, d := range []string{outDir, poolDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatalf("chaos: %v", err)
		}
	}

	r := &chaosRunner{
		t:    t,
		bin:  servedBinary(t),
		cfg:  chaosDaemon(seed),
		out:  outDir,
		pool: newFilePool(t, poolDir),
	}
	r.d = startDaemon(t, r.bin, r.cfg)
	defer func() { r.d.kill() }()
	r.c = newClient(t, r.d)

	for i, a := range script {
		r.step(i, a)
		r.d.checkAlive()
	}

	// Final phase: wait for every in-flight job to reach a terminal state,
	// re-check conservation on a quiet daemon, settle all per-job checks,
	// then SIGTERM and hold the drain to its bound.
	r.quiesce(90 * time.Second)
	m := r.checkMetrics()
	if m.JobsTotal.Accepted != m.JobsTotal.Succeeded+m.JobsTotal.Failed+m.JobsTotal.Cancelled {
		t.Fatalf("INVARIANT conservation: quiesced daemon has accepted=%d != succeeded=%d+failed=%d+cancelled=%d",
			m.JobsTotal.Accepted, m.JobsTotal.Succeeded, m.JobsTotal.Failed, m.JobsTotal.Cancelled)
	}
	r.settleTracked()
	r.d.terminate()
}

// resolve substitutes the script placeholders with this run's directories.
func (r *chaosRunner) resolve(body string) string {
	body = strings.ReplaceAll(body, "$OUT", r.out)
	return strings.ReplaceAll(body, "$F", r.pool.dir)
}

func (r *chaosRunner) step(i int, a action) {
	r.t.Helper()
	switch a.Op {
	case opSubmit:
		r.submit(i, a)
	case opMalformed:
		res, err := r.c.submit(a.Body)
		if err != nil {
			r.t.Fatalf("action %04d: submit: %v", i, err)
		}
		if res.code != http.StatusBadRequest {
			r.t.Fatalf("INVARIANT reject-malformed: action %04d body %s got %d (want 400): %s",
				i, a.Body, res.code, res.body)
		}
	case opOverload:
		for _, body := range a.Burst {
			r.submit(i, action{Op: opSubmit, Body: body})
		}
	case opPoll:
		if len(r.tracked) == 0 {
			return
		}
		tj := r.tracked[a.Target%len(r.tracked)]
		code, v, err := r.c.jobStatus(tj.id)
		if err != nil {
			r.t.Fatalf("action %04d: poll %s: %v", i, tj.id, err)
		}
		r.checkJobView(i, code, v, tj.id)
	case opProbe:
		if len(r.tracked) == 0 {
			return
		}
		tj := r.tracked[a.Target%len(r.tracked)]
		code, v, err := r.c.jobStatus(tj.id)
		if err != nil {
			r.t.Fatalf("action %04d: latency-probe %s: %v", i, tj.id, err)
		}
		r.checkJobView(i, code, v, tj.id)
		if code == http.StatusOK {
			r.checkSpans(i, v, tj.id)
		}
	case opCancel:
		if len(r.tracked) == 0 {
			return
		}
		tj := r.tracked[a.Target%len(r.tracked)]
		code, err := r.c.cancel(tj.id)
		if err != nil {
			r.t.Fatalf("action %04d: cancel %s: %v", i, tj.id, err)
		}
		if code != http.StatusOK && code != http.StatusNotFound {
			r.t.Fatalf("action %04d: cancel %s got %d", i, tj.id, code)
		}
	case opList:
		views, err := r.c.list()
		if err != nil {
			r.t.Fatalf("action %04d: list: %v", i, err)
		}
		for _, v := range views {
			r.checkJobView(i, http.StatusOK, v, v.ID)
			r.checkSpans(i, v, v.ID)
		}
	case opMetrics:
		r.checkMetrics()
	case opCorrupt:
		r.pool.corrupt(a.File)
	case opRestart:
		r.restart()
	default:
		r.t.Fatalf("action %04d: unknown op %q", i, a.Op)
	}
}

// submit performs one POST /jobs and classifies the outcome. 202 starts a
// follower; 429 must carry Retry-After; anything else on a well-formed body
// is a violation.
func (r *chaosRunner) submit(i int, a action) {
	r.t.Helper()
	res, err := r.c.submit(r.resolve(a.Body))
	if err != nil {
		r.t.Fatalf("action %04d: submit: %v", i, err)
	}
	switch res.code {
	case http.StatusAccepted:
		tj := trackedJob{id: res.view.ID, expectFail: a.ExpectFail, isExport: a.IsExport, f: r.c.follow(res.view.ID)}
		if a.IsExport {
			tj.exportPath = r.exportTarget(a.Body)
		}
		r.tracked = append(r.tracked, tj)
	case http.StatusTooManyRequests:
		if res.retryAfter == "" {
			r.t.Fatalf("INVARIANT retry-after: action %04d got 429 without Retry-After: %s", i, res.body)
		}
	default:
		r.t.Fatalf("INVARIANT accept-wellformed: action %04d body %s got %d: %s",
			i, a.Body, res.code, res.body)
	}
}

// exportTarget extracts and resolves the "output" path of an export body.
func (r *chaosRunner) exportTarget(body string) string {
	const key = `"output":"`
	at := strings.Index(body, key)
	end := strings.Index(body[at+len(key):], `"`)
	return r.resolve(body[at+len(key) : at+len(key)+end])
}

var validStatuses = map[string]bool{
	"queued": true, "running": true, "succeeded": true, "failed": true, "cancelled": true,
}

// checkJobView validates one observed job view. 404 is legal only for jobs
// old enough to have been trimmed by retention.
func (r *chaosRunner) checkJobView(i, code int, v jobView, id string) {
	r.t.Helper()
	switch code {
	case http.StatusOK:
		if !validStatuses[v.Status] {
			r.t.Fatalf("INVARIANT status-valid: action %04d job %s has status %q", i, id, v.Status)
		}
	case http.StatusNotFound:
		// Retention trims the oldest terminal jobs past the server's 1024; any
		// tracked job can legally disappear only on runs long enough for that.
		if len(r.tracked) <= 1024 {
			r.t.Fatalf("INVARIANT job-retained: action %04d job %s is 404 but only %d jobs were accepted",
				i, id, len(r.tracked))
		}
	default:
		r.t.Fatalf("action %04d: job %s status code %d", i, id, code)
	}
}

var terminalStatuses = map[string]bool{"succeeded": true, "failed": true, "cancelled": true}

// checkSpans enforces the latency-span invariants on one observed job view:
// a terminal job must expose spans, every span must be non-negative, and the
// queue/cache/exec/flush components — disjoint sub-intervals of the job's
// lifetime on one clock — must sum to at most the total.
func (r *chaosRunner) checkSpans(i int, v jobView, id string) {
	r.t.Helper()
	sp := v.Spans
	if !terminalStatuses[v.Status] {
		if sp != nil {
			r.t.Fatalf("INVARIANT span-terminal: action %04d job %s is %s but already exposes spans %+v",
				i, id, v.Status, *sp)
		}
		return
	}
	if sp == nil {
		r.t.Fatalf("INVARIANT span-present: action %04d terminal job %s (%s) has no spans", i, id, v.Status)
	}
	for _, f := range []struct {
		name string
		ns   int64
	}{
		{"queue_ns", sp.QueueNS}, {"cache_ns", sp.CacheNS}, {"exec_ns", sp.ExecNS},
		{"flush_ns", sp.FlushNS}, {"total_ns", sp.TotalNS},
	} {
		if f.ns < 0 {
			r.t.Fatalf("INVARIANT span-monotonic: action %04d job %s span %s is negative (%d)", i, id, f.name, f.ns)
		}
	}
	if sum := sp.QueueNS + sp.CacheNS + sp.ExecNS + sp.FlushNS; sum > sp.TotalNS {
		r.t.Fatalf("INVARIANT span-sum: action %04d job %s span components sum to %dns > total %dns (%+v)",
			i, id, sum, sp.TotalNS, *sp)
	}
}

// checkMetrics samples /metricsz and enforces the conservation laws on the
// snapshot. The driver is single-threaded, so submission counters cannot
// move between the two views inside one handler call; only completion-side
// counters may lag by the workers currently handing off.
func (r *chaosRunner) checkMetrics() metricsSnap {
	r.t.Helper()
	m, err := r.c.metrics()
	if err != nil {
		r.t.Fatalf("metrics: %v", err)
	}
	jt := m.JobsTotal
	if jt.Submitted != jt.Rejected+jt.Succeeded+jt.Failed+jt.Cancelled+jt.InFlight {
		r.t.Fatalf("INVARIANT conservation: submitted=%d != rejected=%d+succeeded=%d+failed=%d+cancelled=%d+in_flight=%d (%+v)",
			jt.Submitted, jt.Rejected, jt.Succeeded, jt.Failed, jt.Cancelled, jt.InFlight, jt)
	}
	if jt.Accepted != jt.Submitted-jt.Rejected {
		r.t.Fatalf("INVARIANT conservation: accepted=%d != submitted=%d - rejected=%d", jt.Accepted, jt.Submitted, jt.Rejected)
	}
	if jt.InFlight < 0 {
		r.t.Fatalf("INVARIANT conservation: negative in_flight %d", jt.InFlight)
	}
	if max := int64(r.cfg.queueDepth + 2*r.cfg.workers); jt.InFlight > max {
		r.t.Fatalf("INVARIANT backpressure: in_flight=%d exceeds queue+2*workers=%d", jt.InFlight, max)
	}
	if m.Queue.Submitted != jt.Accepted {
		r.t.Fatalf("INVARIANT conservation: queue submitted=%d != jobs accepted=%d", m.Queue.Submitted, jt.Accepted)
	}
	return m
}

// quiesce polls until no job is queued, running or in flight — the
// no-stuck-jobs invariant. Every job carries a deadline, so a bounded wait
// suffices; exceeding it means something is wedged non-terminal.
func (r *chaosRunner) quiesce(within time.Duration) {
	r.t.Helper()
	deadline := time.Now().Add(within)
	for {
		m, err := r.c.metrics()
		if err != nil {
			r.t.Fatalf("quiesce: metrics: %v", err)
		}
		if m.JobsTotal.InFlight == 0 && m.Queue.Queued == 0 && m.Queue.Running == 0 {
			return
		}
		if time.Now().After(deadline) {
			views, _ := r.c.list()
			var stuck []string
			for _, v := range views {
				if v.Status == "queued" || v.Status == "running" {
					stuck = append(stuck, fmt.Sprintf("%s(%s %s)", v.ID, v.Kind, v.Status))
				}
			}
			r.t.Fatalf("INVARIANT no-stuck-jobs: still %d in flight after %s: %s",
				m.JobsTotal.InFlight, within, strings.Join(stuck, " "))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// settleTracked closes out every tracked job of the current incarnation:
// its stream must have ended, its lines must be JSON, an expect-fail job's
// last line must be an error, and export atomicity must hold (success ⇒
// loadable file, failure/cancellation ⇒ no file at all — never a torn one).
func (r *chaosRunner) settleTracked() {
	r.t.Helper()
	for _, tj := range r.tracked {
		if !tj.f.wait(15 * time.Second) {
			r.t.Fatalf("INVARIANT no-stuck-jobs: job %s result stream still open after daemon quiesced/exited", tj.id)
		}
		lines := tj.f.lines(r.t)
		if len(lines) == 0 {
			r.t.Fatalf("INVARIANT terminal-stream: job %s stream closed with no lines at all", tj.id)
		}
		last := lines[len(lines)-1]
		failed := last["type"] == "error"
		if tj.expectFail && !failed {
			r.t.Fatalf("INVARIANT corrupt-rejected: job %s ran on a corrupted graph file but did not fail; last line: %v",
				tj.id, last)
		}
		if tj.isExport {
			_, statErr := os.Stat(tj.exportPath)
			switch {
			case failed && statErr == nil:
				r.t.Fatalf("INVARIANT export-atomic: failed export %s left a file at %s", tj.id, tj.exportPath)
			case failed && !os.IsNotExist(statErr):
				r.t.Fatalf("INVARIANT export-atomic: stat %s: %v", tj.exportPath, statErr)
			case !failed:
				if _, err := graphio.ReadFile(tj.exportPath, nil); err != nil {
					r.t.Fatalf("INVARIANT export-atomic: successful export %s wrote an unloadable file %s: %v",
						tj.id, tj.exportPath, err)
				}
			}
		}
	}
	r.tracked = nil
}

// restart exercises the mid-flight drain path: SIGTERM with jobs queued and
// running, hold the drain to its bound and exit code, settle every tracked
// job against the closed streams, then bring up a fresh incarnation on a
// new port.
func (r *chaosRunner) restart() {
	r.t.Helper()
	r.d.terminate()
	r.settleTracked()
	r.d = startDaemon(r.t, r.bin, r.cfg)
	r.c = newClient(r.t, r.d)
}
