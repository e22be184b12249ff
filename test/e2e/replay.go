package e2e

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"time"

	"micgraph/internal/xrand"
)

var (
	hexAddr     = regexp.MustCompile(`0x[0-9a-f]+`)
	goroutineID = regexp.MustCompile(`goroutine \d+`)
	// The two scheduler counters that are clock readings, not counts.
	loopTallyNS = regexp.MustCompile(`("loop_(?:start_lag|busy)_ns"):\d+`)
)

// Replay determinism: one seed must reproduce not just the action script
// but the daemon's observable behaviour — per-job result payloads included.
// That only holds on a deterministic slice of the system, so the replay
// driver pins everything that can race: one queue worker, one kernel
// worker, strictly sequential submits, and only kernels whose scheduling
// is deterministic at a single worker (seq variants and team-based
// dynamic-for, never work-stealing pool variants, never sweeps — simulator
// cells embed wall-clock readings). Faults stay on: the injector's per-site
// streams are seeded, and with sequential jobs the draw order is fixed, so
// even which jobs fail is reproducible.
func replayDaemon(seed uint64) daemonConfig {
	return daemonConfig{
		workers:       1,
		kernelWorkers: 1,
		queueDepth:    8,
		jobTimeout:    60 * time.Second,
		drainTimeout:  30 * time.Second,
		faultSeed:     seed*2654435761 + 2,
		panicRate:     0.02,
		stallRate:     0.05,
		stall:         time.Millisecond,
		readRate:      0.03,
		writeRate:     0.10,
	}
}

// replayBodies derives the deterministic job mix for a seed: n bodies drawn
// from the determinism-safe set, with $F/$OUT placeholders.
func replayBodies(seed uint64, n int) []string {
	rng := xrand.New(seed ^ 0x5ca1ab1e)
	bodies := make([]string, 0, n)
	exports := 0
	for i := 0; i < n; i++ {
		suite := suites[rng.Intn(len(suites))]
		scale := []int{8, 16}[rng.Intn(2)]
		chunk := []int{50, 100, 200}[rng.Intn(3)]
		switch rng.Intn(5) {
		case 0:
			// hybrid is a team dynamic-for, and its direction decisions
			// depend on frontier sizes alone.
			bodies = append(bodies, fmt.Sprintf(
				`{"kind":"bfs","variant":%q,"graph":{"suite":%q,"scale":%d}}`,
				[]string{"seq", "hybrid"}[rng.Intn(2)], suite, scale))
		case 1:
			bodies = append(bodies, fmt.Sprintf(
				`{"kind":"coloring","variant":"seq","graph":{"suite":%q,"scale":%d}}`, suite, scale))
		case 2:
			bodies = append(bodies, fmt.Sprintf(
				`{"kind":"irregular","variant":"openmp","iters":%d,"chunk":%d,"graph":{"suite":%q,"scale":%d}}`,
				2+rng.Intn(3), chunk, suite, scale))
		case 3:
			bodies = append(bodies, fmt.Sprintf(
				`{"kind":"coloring","variant":"openmp","chunk":%d,"graph":{"file":"$F/%s"}}`,
				chunk, poolFileName(rng.Intn(len(poolFiles)), 0)))
		default:
			bodies = append(bodies, fmt.Sprintf(
				`{"kind":"export","graph":{"suite":%q,"scale":%d},"output":"$OUT/export-%d.mtx"}`,
				suite, scale, exports))
			exports++
		}
	}
	return bodies
}

// runReplay executes the seed's job mix sequentially against a pinned
// daemon and returns the canonical run log: every submitted body, every
// job's full result payload (run-local paths normalised back to $F/$OUT),
// the sha256 of every export artifact, and the final lifetime totals. Two
// calls with the same seed must return byte-identical logs.
func runReplay(t tb, seed uint64, n int) []byte {
	t.Helper()
	dir, err := os.MkdirTemp("", "replay-*")
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer os.RemoveAll(dir)
	outDir := dir + "/out"
	poolDir := dir + "/pool"
	for _, d := range []string{outDir, poolDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	pool := newFilePool(t, poolDir)

	d := startDaemon(t, servedBinary(t), replayDaemon(seed))
	defer d.kill()
	c := newClient(t, d)

	// normalize rewrites run-local absolute paths back into placeholders and
	// scrubs runtime noise (heap addresses and goroutine IDs in the stack
	// traces that injected panics embed in error lines, the nanosecond
	// tallies among the scheduler counters) so the log is
	// byte-stable across runs and hosts. The *behavioural* content — which
	// call number panicked, at which site, in which frame — survives intact.
	normalize := func(s string) string {
		s = strings.ReplaceAll(s, outDir, "$OUT")
		s = strings.ReplaceAll(s, poolDir, "$F")
		s = hexAddr.ReplaceAllString(s, "0xADDR")
		s = loopTallyNS.ReplaceAllString(s, "$1:NS")
		return goroutineID.ReplaceAllString(s, "goroutine N")
	}

	var log strings.Builder
	fmt.Fprintf(&log, "replay seed=%d jobs=%d\n", seed, n)
	for i, body := range replayBodies(seed, n) {
		fmt.Fprintf(&log, "--- job %02d %s\n", i, body)
		resolved := strings.ReplaceAll(strings.ReplaceAll(body, "$OUT", outDir), "$F", pool.dir)
		res, err := c.submit(resolved)
		if err != nil {
			t.Fatalf("replay job %02d: %v", i, err)
		}
		if res.code != http.StatusAccepted {
			t.Fatalf("replay job %02d: got %d: %s", i, res.code, res.body)
		}
		id := res.view.ID
		if !waitTerminal(c, id, 60*time.Second) {
			t.Fatalf("replay job %02d (%s): never reached a terminal status", i, id)
		}
		payload, err := c.result(id)
		if err != nil {
			t.Fatalf("replay job %02d: result: %v", i, err)
		}
		log.WriteString(normalize(payload))
		if at := strings.Index(body, `"output":"`); at >= 0 {
			path := strings.ReplaceAll(exportOutput(body), "$OUT", outDir)
			if raw, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(&log, "artifact sha256=%x\n", sha256.Sum256(raw))
			} else {
				log.WriteString("artifact absent\n")
			}
		}
		d.checkAlive()
	}

	m, err := c.metrics()
	if err != nil {
		t.Fatalf("replay: metrics: %v", err)
	}
	jt := m.JobsTotal
	fmt.Fprintf(&log, "totals submitted=%d accepted=%d succeeded=%d failed=%d cancelled=%d\n",
		jt.Submitted, jt.Accepted, jt.Succeeded, jt.Failed, jt.Cancelled)
	d.terminate()
	return []byte(log.String())
}

// exportOutput pulls the raw (unresolved) "output" value from a body.
func exportOutput(body string) string {
	const key = `"output":"`
	at := strings.Index(body, key)
	end := strings.Index(body[at+len(key):], `"`)
	return body[at+len(key) : at+len(key)+end]
}

// waitTerminal polls a job until it leaves queued/running.
func waitTerminal(c *client, id string, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		code, v, err := c.jobStatus(id)
		if err == nil && code == http.StatusOK &&
			v.Status != "queued" && v.Status != "running" {
			return true
		}
		time.Sleep(25 * time.Millisecond)
	}
	return false
}
