package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"micgraph/internal/fault"
	"micgraph/internal/serve"
	"micgraph/internal/telemetry"
)

// fastOpts is the test harness shape: small daemons, aggressive probes so
// eviction tests converge in tens of milliseconds.
func fastOpts() TestClusterOptions {
	return TestClusterOptions{
		Serve: serve.Config{
			Workers:       2,
			KernelWorkers: 2,
			QueueDepth:    32,
			CacheBytes:    64 << 20,
		},
		Cluster: Config{
			ProbeInterval: 25 * time.Millisecond,
			ProbeTimeout:  250 * time.Millisecond,
			FailThreshold: 2,
		},
	}
}

func postJob(t *testing.T, url, body string, hdr map[string]string) (*http.Response, serve.JobView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/jobs", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit to %s: %v", url, err)
	}
	defer resp.Body.Close()
	var view serve.JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
	}
	return resp, view
}

func awaitTerminal(t *testing.T, url, id string, within time.Duration) serve.JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			t.Fatalf("polling %s: %v", id, err)
		}
		var view serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("polling %s: %v", id, err)
		}
		switch view.Status {
		case serve.StatusSucceeded, serve.StatusFailed, serve.StatusCancelled:
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal within %s", id, within)
	return serve.JobView{}
}

func resultLines(t *testing.T, url, id string) (http.Header, []map[string]any) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("result %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d", id, resp.StatusCode)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("result %s: bad JSONL line %q: %v", id, sc.Text(), err)
		}
		lines = append(lines, m)
	}
	return resp.Header, lines
}

// specOwnedBy finds a fast kernel spec whose placement key is owned by
// the named shard (searching suite/scale combinations).
func specOwnedBy(t *testing.T, ring *Ring, owner string) string {
	t.Helper()
	for _, suite := range []string{"pwtk", "hood", "bmw3_2", "msdoor"} {
		for scale := 4; scale <= 64; scale *= 2 {
			key := fmt.Sprintf("suite:%s@%d", suite, scale)
			if ring.Owner(key) == owner {
				return fmt.Sprintf(`{"kind":"coloring","variant":"seq","graph":{"suite":%q,"scale":%d}}`, suite, scale)
			}
		}
	}
	t.Fatalf("no suite/scale combination owned by %s", owner)
	return ""
}

func TestClusterForwardingAndStamping(t *testing.T) {
	tc, err := StartTestCluster(3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	spec := `{"kind":"coloring","variant":"seq","graph":{"suite":"pwtk","scale":4}}`
	key := "suite:pwtk@4"
	replicas := tc.Nodes[0].Ring().Replicas(key, 2)

	resp, view := postJob(t, tc.URLs[0], spec, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if view.Shard == "" || view.RequestID == "" {
		t.Fatalf("cluster job view missing shard/request id: %+v", view)
	}
	inReplicas := false
	for _, r := range replicas {
		if view.Shard == r {
			inReplicas = true
		}
	}
	if !inReplicas {
		t.Fatalf("job served by %s, not in replica set %v of its key", view.Shard, replicas)
	}
	if !strings.HasPrefix(view.ID, view.Shard+"-job-") {
		t.Fatalf("job ID %q not prefixed with owning shard %q", view.ID, view.Shard)
	}

	done := awaitTerminal(t, tc.URLs[0], view.ID, 30*time.Second)
	if done.Status != serve.StatusSucceeded {
		t.Fatalf("job %s finished %s: %s", view.ID, done.Status, done.Error)
	}

	// Every result line is stamped with the serving shard and the request
	// ID, whichever node the stream is fetched through.
	for i, url := range tc.URLs {
		hdr, lines := resultLines(t, url, view.ID)
		if got := hdr.Get(serve.RequestIDHeader); got != view.RequestID {
			t.Errorf("node %d: result stream echoes request id %q, want %q", i, got, view.RequestID)
		}
		if len(lines) == 0 {
			t.Fatalf("node %d: empty result stream", i)
		}
		for _, line := range lines {
			if line["shard"] != view.Shard {
				t.Fatalf("node %d: line missing shard stamp: %v", i, line)
			}
			if line["request_id"] != view.RequestID {
				t.Fatalf("node %d: line missing request_id stamp: %v", i, line)
			}
		}
	}

	// Status and cancel route by ID prefix from any entry node.
	for i, url := range tc.URLs {
		resp, err := http.Get(url + "/jobs/" + view.ID)
		if err != nil {
			t.Fatalf("node %d: status: %v", i, err)
		}
		var v serve.JobView
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || v.ID != view.ID || v.Shard != view.Shard {
			t.Fatalf("node %d: status %d view %+v", i, resp.StatusCode, v)
		}
	}

	// An explicit X-Micserved-Request-ID propagates end to end.
	resp2, view2 := postJob(t, tc.URLs[1], spec, map[string]string{serve.RequestIDHeader: "trace-42"})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with request id: status %d", resp2.StatusCode)
	}
	if resp2.Header.Get(serve.RequestIDHeader) != "trace-42" {
		t.Errorf("submit response does not echo request id: %v", resp2.Header)
	}
	if view2.RequestID != "trace-42" {
		t.Errorf("job view carries request id %q, want trace-42", view2.RequestID)
	}
	awaitTerminal(t, tc.URLs[1], view2.ID, 30*time.Second)
	_, lines := resultLines(t, tc.URLs[2], view2.ID)
	for _, line := range lines {
		if line["request_id"] != "trace-42" {
			t.Fatalf("line not stamped with propagated request id: %v", line)
		}
	}
}

// clusterMetrics fetches a node's /metricsz cluster block.
func clusterMetrics(t *testing.T, url string) clusterTotals {
	t.Helper()
	var body metricsBody
	if err := serve.GetJSON(context.Background(), url+"/metricsz", &body); err != nil {
		t.Fatalf("metricsz: %v", err)
	}
	return body.Cluster
}

func conserved(t *testing.T, jt serve.JobTotals, what string) {
	t.Helper()
	if jt.Submitted != jt.Rejected+jt.Succeeded+jt.Failed+jt.Cancelled+jt.InFlight {
		t.Fatalf("conservation violated (%s): %+v", what, jt)
	}
}

func TestClusterMetricszConservation(t *testing.T) {
	tc, err := StartTestCluster(3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// A spread of jobs through every entry node: successes on several
	// keys, a failure (bad file), a 400 (malformed spec).
	var ids []string
	specs := []string{
		`{"kind":"coloring","variant":"seq","graph":{"suite":"pwtk","scale":4}}`,
		`{"kind":"coloring","variant":"seq","graph":{"suite":"hood","scale":4}}`,
		`{"kind":"coloring","variant":"seq","graph":{"suite":"bmw3_2","scale":4}}`,
		`{"kind":"coloring","variant":"seq","graph":{"suite":"msdoor","scale":4}}`,
		`{"kind":"coloring","variant":"openmp","graph":{"file":"/nope/missing.mtx"}}`,
	}
	for i, spec := range specs {
		for rep := 0; rep < 2; rep++ {
			resp, view := postJob(t, tc.URLs[(i+rep)%3], spec, nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d: status %d", i, resp.StatusCode)
			}
			ids = append(ids, view.ID)
		}
	}
	resp, _ := postJob(t, tc.URLs[0], `{"kind":"nope"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d, want 400", resp.StatusCode)
	}
	for _, id := range ids {
		awaitTerminal(t, tc.URLs[0], id, 30*time.Second)
	}

	// Every node's cluster view must satisfy the summed conservation law,
	// and the summed totals must be exactly the field-wise sum of shards.
	for i, url := range tc.URLs {
		cb := clusterMetrics(t, url)
		if len(cb.Shards) != 3 {
			t.Fatalf("node %d: cluster block covers %d shards, want 3", i, len(cb.Shards))
		}
		conserved(t, cb.JobsTotal, fmt.Sprintf("node %d summed", i))
		var sum serve.JobTotals
		for _, name := range []string{"n1", "n2", "n3"} {
			jt := cb.Shards[name]
			conserved(t, jt, fmt.Sprintf("node %d shard %s", i, name))
			sum.Add(jt)
		}
		if sum != cb.JobsTotal {
			t.Fatalf("node %d: summed totals %+v != cluster jobs_total %+v", i, sum, cb.JobsTotal)
		}
	}
	// The failed submissions really did fail (and were counted somewhere).
	cb := clusterMetrics(t, tc.URLs[0])
	if cb.JobsTotal.Failed < 2 {
		t.Fatalf("expected >=2 failed jobs cluster-wide, got %+v", cb.JobsTotal)
	}
	if cb.JobsTotal.Succeeded < 8 {
		t.Fatalf("expected >=8 succeeded jobs cluster-wide, got %+v", cb.JobsTotal)
	}
}

// TestClusterMetricszOneSnapshot scrapes while jobs are being accepted,
// refused and finished: in every scrape the summed jobs_total must be the
// field-wise sum of the shards, which holds only if the node's own row and
// its share of the sum are one snapshot.
func TestClusterMetricszOneSnapshot(t *testing.T) {
	tc, err := StartTestCluster(3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	stop := make(chan struct{})
	submitted := make(chan struct{})
	defer func() { // before tc.Close, also when a scrape fails the test
		close(stop)
		<-submitted
	}()
	go func() {
		defer close(submitted)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			spec := fmt.Sprintf(`{"kind":"coloring","variant":"seq","graph":{"suite":"hood","scale":%d}}`, 32+i%4)
			resp, err := http.Post(tc.URLs[i%3]+"/jobs", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			resp.Body.Close() // 202 or a queue-full 429: both move the totals
		}
	}()
	for i := 0; i < 300; i++ {
		cb := clusterMetrics(t, tc.URLs[i%3])
		var sum serve.JobTotals
		for _, jt := range cb.Shards {
			sum.Add(jt)
		}
		if sum != cb.JobsTotal {
			t.Fatalf("scrape %d of node %d: shards sum to %+v, jobs_total is %+v", i, i%3, sum, cb.JobsTotal)
		}
	}
}

// hourClock is a telemetry.Clock that steps one hour per read, so every
// span a job stamps passes the last histogram bound (about 62.6 min).
type hourClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *hourClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Hour)
	return c.t
}

// TestClusterMetricszOverflowBucket checks that a node's cluster-scope
// /metricsz carries its shard's body exactly: the overflow bucket's le_ns
// (math.MaxInt64, past float64's exact integers) must decode as itself.
func TestClusterMetricszOverflowBucket(t *testing.T) {
	opts := fastOpts()
	opts.Serve.Clock = &hourClock{t: time.Unix(1_700_000_000, 0)}
	tc, err := StartTestCluster(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	resp, view := postJob(t, tc.URLs[0], `{"kind":"coloring","variant":"seq","graph":{"suite":"pwtk","scale":8}}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	awaitTerminal(t, tc.URLs[0], view.ID, 30*time.Second)

	var m serve.Metrics
	if err := serve.GetJSON(context.Background(), tc.URLs[0]+"/metricsz", &m); err != nil {
		t.Fatal(err)
	}
	total := m.Latency["total"]
	if total.Count != 1 || len(total.Buckets) == 0 {
		t.Fatalf("total latency = %+v, want one observation", total)
	}
	if last := total.Buckets[len(total.Buckets)-1]; last.LeNS != telemetry.OverflowLeNS || last.Count != 1 {
		t.Fatalf("last total bucket = %+v, want the overflow bucket (le_ns %d) holding the job", last, int64(telemetry.OverflowLeNS))
	}
}

// TestClusterRefusedSubmitsCounted sends specs the daemon refuses to an
// entry that is outside each spec's replica set: every refusal is answered
// and booked on the entry itself, and no peer's load estimate moves, since
// nothing refused is forwarded. Probes are held off so that a bumped
// estimate would stay visible.
func TestClusterRefusedSubmitsCounted(t *testing.T) {
	opts := fastOpts()
	opts.Cluster.ProbeInterval = time.Hour
	tc, err := StartTestCluster(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	entry := tc.Nodes[0]
	peerLoads := func() map[string]int {
		var h healthBody
		if err := serve.GetJSON(context.Background(), tc.URLs[0]+"/healthz", &h); err != nil {
			t.Fatal(err)
		}
		loads := map[string]int{}
		for _, p := range h.Cluster.Peers {
			loads[p.Name] = p.Load
		}
		return loads
	}
	// elsewhere finds a scale whose key, "suite:<suite>@<scale>", leaves the
	// entry out of the key's replica set.
	elsewhere := func(suite string) int {
		for scale := 1; scale < 1000; scale++ {
			key := fmt.Sprintf("suite:%s@%d", suite, scale)
			if !slices.Contains(entry.Ring().Replicas(key, entry.cfg.Replication), entry.Self()) {
				return scale
			}
		}
		t.Fatalf("every %s key is on %s", suite, entry.Self())
		return 0
	}
	pwtk, bare := elsewhere("pwtk"), elsewhere("")
	before := peerLoads()

	tooLong := `{"kind":"export","graph":{"suite":"pwtk","scale":8},"output":"` + strings.Repeat("x", 2<<20) + `"}`
	bodies := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{fmt.Sprintf(`{"kind":"coloring","graph":{"suite":"pwtk","scale":%d},"retries":1}`, pwtk), http.StatusBadRequest},
		{tooLong, http.StatusRequestEntityTooLarge},
		{fmt.Sprintf(`{"kind":"nope","graph":{"suite":"pwtk","scale":%d}}`, pwtk), http.StatusBadRequest},
		{fmt.Sprintf(`{"kind":"coloring","graph":{"scale":%d}}`, bare), http.StatusBadRequest},
	}
	for _, c := range bodies {
		resp, _ := postJob(t, tc.URLs[0], c.body, nil)
		if resp.StatusCode != c.want {
			t.Errorf("submit %.60s = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	refused := int64(len(bodies))
	cb := clusterMetrics(t, tc.URLs[0])
	if cb.JobsTotal.Submitted != refused || cb.JobsTotal.Rejected != refused {
		t.Errorf("cluster totals after %d refused submits = %+v", refused, cb.JobsTotal)
	}
	for shard, jt := range cb.Shards {
		want := serve.JobTotals{}
		if shard == entry.Self() {
			want.Submitted, want.Rejected = refused, refused
		}
		if jt != want {
			t.Errorf("shard %s booked %+v, want %+v: a refusal is booked by the entry alone", shard, jt, want)
		}
	}
	if after := peerLoads(); !maps.Equal(after, before) {
		t.Errorf("peer loads moved from %v to %v: a refused spec counted against a peer", before, after)
	}
}

func TestClusterCacheMissIsolation(t *testing.T) {
	tc, err := StartTestCluster(3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// A job on a nonexistent file: the owning shard takes the load miss
	// and fails the job; no other shard's store is ever touched.
	badSpec := `{"kind":"coloring","variant":"openmp","graph":{"file":"/nope/missing.mtx"}}`
	resp, view := postJob(t, tc.URLs[0], badSpec, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	done := awaitTerminal(t, tc.URLs[0], view.ID, 30*time.Second)
	if done.Status != serve.StatusFailed {
		t.Fatalf("bad-file job finished %s, want failed", done.Status)
	}
	for _, n := range tc.Nodes {
		stats := n.Server().Cache().Stats()
		if n.Self() == view.Shard {
			if stats.Misses == 0 {
				t.Errorf("owning shard %s records no cache miss", n.Self())
			}
		} else if stats.Misses != 0 || stats.Hits != 0 {
			t.Errorf("shard %s touched its cache (misses=%d hits=%d) for a key it does not own",
				n.Self(), stats.Misses, stats.Hits)
		}
	}

	// The other shards still serve their own keys from pristine caches.
	for _, n := range tc.Nodes {
		if n.Self() == view.Shard {
			continue
		}
		spec := specOwnedBy(t, n.Ring(), n.Self())
		resp, v := postJob(t, tc.URLs[0], spec, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit to healthy shard: status %d", resp.StatusCode)
		}
		got := awaitTerminal(t, tc.URLs[0], v.ID, 30*time.Second)
		if got.Status != serve.StatusSucceeded {
			t.Fatalf("job on shard %s finished %s: %s", v.Shard, got.Status, got.Error)
		}
	}
}

func TestClusterShardKillEviction(t *testing.T) {
	tc, err := StartTestCluster(3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// Run a job owned by the victim so a finished job lives on it, then
	// kill the victim abruptly.
	const victim = "n3"
	victimIdx := 2
	spec := specOwnedBy(t, tc.Nodes[0].Ring(), victim)
	resp, view := postJob(t, tc.URLs[0], spec, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if view.Shard != victim {
		t.Fatalf("setup: job served by %s, want %s", view.Shard, victim)
	}
	awaitTerminal(t, tc.URLs[0], view.ID, 30*time.Second)

	tc.Kill(victimIdx)

	// Survivors evict the dead peer after FailThreshold probe failures.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if !slices.Contains(tc.Nodes[0].Ring().Nodes(), victim) && !slices.Contains(tc.Nodes[1].Ring().Nodes(), victim) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors did not evict %s within 10s", victim)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Survivors stay healthy.
	for i := 0; i < 2; i++ {
		hr, err := http.Get(tc.URLs[i] + "/healthz")
		if err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("survivor %d unhealthy: %v %v", i, err, hr)
		}
		hr.Body.Close()
	}

	// The dead shard's job does not vanish: its status answers 502 with
	// the shard named, and its stream ends in a terminal error line.
	sr, err := http.Get(tc.URLs[0] + "/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var errBody map[string]string
	json.NewDecoder(sr.Body).Decode(&errBody)
	sr.Body.Close()
	if sr.StatusCode != http.StatusBadGateway || !strings.Contains(errBody["error"], victim) {
		t.Fatalf("dead-shard status: %d %v, want 502 naming %s", sr.StatusCode, errBody, victim)
	}
	_, lines := resultLines(t, tc.URLs[0], view.ID)
	if len(lines) == 0 {
		t.Fatal("dead-shard result stream is empty")
	}
	last := lines[len(lines)-1]
	if last["type"] != "error" || !strings.Contains(fmt.Sprint(last["error"]), "unreachable") {
		t.Fatalf("dead-shard stream does not end in a terminal error line: %v", last)
	}

	// Keys the victim owned reroute to survivors; new work keeps flowing.
	resp2, view2 := postJob(t, tc.URLs[1], spec, nil)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-kill submit: status %d", resp2.StatusCode)
	}
	if view2.Shard == victim {
		t.Fatalf("post-kill job routed to dead shard %s", victim)
	}
	done := awaitTerminal(t, tc.URLs[1], view2.ID, 30*time.Second)
	if done.Status != serve.StatusSucceeded {
		t.Fatalf("post-kill job finished %s: %s", done.Status, done.Error)
	}

	// Summed conservation holds across the survivors, with the dead shard
	// reported unreachable rather than silently missing.
	cb := clusterMetrics(t, tc.URLs[0])
	conserved(t, cb.JobsTotal, "post-kill summed")
	if len(cb.Shards) != 2 {
		t.Fatalf("post-kill cluster block covers %d shards, want 2 survivors", len(cb.Shards))
	}
	found := false
	for _, u := range cb.Unreachable {
		if u == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead shard %s not reported unreachable: %+v", victim, cb)
	}
}

// TestClusterThroughputNearLinear pins the point of sharding: with jobs
// made wall-clock-bound by the stall injector (they sleep at scheduler
// boundaries rather than burn CPU), three nodes overlap three times as
// much sleeping as one, so cluster throughput approaches 3x even on a
// single-core host. The 1.8x bound is loose to stay robust under -race
// and CI noise.
func TestClusterThroughputNearLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison is wall-clock bound")
	}
	const jobs = 24
	specs := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		suite := []string{"pwtk", "hood", "bmw3_2", "msdoor"}[i%4]
		scale := []int{8, 16}[(i/4)%2]
		// Tiny graphs (scale >= 8) with chunk ~1/10th of |V|: each job
		// crosses ~10 chunk boundaries, each stalling 40ms, so jobs sleep
		// ~200ms and burn near-zero CPU — capacity is worker-slots, not
		// the single core CI runs on.
		specs = append(specs, fmt.Sprintf(
			`{"kind":"irregular","variant":"openmp","iters":1,"chunk":340,"graph":{"suite":%q,"scale":%d}}`,
			suite, scale))
	}

	run := func(nodes int) time.Duration {
		in := fault.New(1)
		in.Enable("team/chunk/stall", 1).Enable("pool/task/stall", 1)
		opts := fastOpts()
		opts.Serve.Injector = in
		opts.Serve.Stall = 40 * time.Millisecond
		opts.Cluster.Replication = nodes // kernel reads may go to any shard
		tc, err := StartTestCluster(nodes, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		start := time.Now()
		ids := make([]string, 0, jobs)
		entries := make([]string, 0, jobs)
		for i, spec := range specs {
			url := tc.URLs[i%nodes]
			resp, view := postJob(t, url, spec, nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d: status %d", i, resp.StatusCode)
			}
			ids = append(ids, view.ID)
			entries = append(entries, url)
		}
		for i, id := range ids {
			v := awaitTerminal(t, entries[i], id, 60*time.Second)
			if v.Status != serve.StatusSucceeded {
				t.Fatalf("job %s finished %s: %s", id, v.Status, v.Error)
			}
		}
		return time.Since(start)
	}

	single := run(1)
	triple := run(3)
	speedup := float64(single) / float64(triple)
	t.Logf("single=%s cluster=%s speedup=%.2fx", single, triple, speedup)
	if speedup < 1.8 {
		t.Errorf("3-node cluster speedup %.2fx < 1.8x (single %s, cluster %s)", speedup, single, triple)
	}
}
