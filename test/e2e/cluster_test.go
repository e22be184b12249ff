package e2e

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"micgraph/internal/serve"
)

// The cluster blocks of /healthz and /metricsz, as far as the oracle reads
// them; the shard bodies around them decode into the serve types.
type healthCluster struct {
	Cluster struct {
		Self    string   `json:"self"`
		Members []string `json:"members"`
	} `json:"cluster"`
}

type metricsCluster struct {
	serve.Metrics
	Cluster struct {
		Self        string                     `json:"self"`
		Members     []string                   `json:"members"`
		Shards      map[string]serve.JobTotals `json:"shards"`
		JobsTotal   serve.JobTotals            `json:"jobs_total"`
		Unreachable []string                   `json:"unreachable"`
	} `json:"cluster"`
}

func conservedTotals(t tb, jt serve.JobTotals, what string) {
	t.Helper()
	if jt.Submitted != jt.Rejected+jt.Succeeded+jt.Failed+jt.Cancelled+jt.InFlight {
		t.Fatalf("INVARIANT conservation (%s): submitted=%d != rejected=%d+succeeded=%d+failed=%d+cancelled=%d+in_flight=%d",
			what, jt.Submitted, jt.Rejected, jt.Succeeded, jt.Failed, jt.Cancelled, jt.InFlight)
	}
}

func awaitTerminalE2E(t tb, c *client, id string, within time.Duration) serve.JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		code, v, err := c.jobStatus(id)
		if err != nil {
			t.Fatalf("polling %s: %v", id, err)
		}
		if code == http.StatusOK && terminalStatuses[v.Status] {
			return v
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal within %s", id, within)
	return serve.JobView{}
}

// TestClusterShardKill is the shard-kill chaos action against real
// micserved processes in cluster mode: boot three peers, run jobs through
// every entry node, SIGKILL one shard, and hold the survivors to the
// cluster invariants — they stay healthy and keep serving, the dead
// shard's jobs fail loudly with terminal error lines rather than
// vanishing, per-shard conservation survives summation, and the corpse is
// reported unreachable.
func TestClusterShardKill(t *testing.T) {
	bin := servedBinary(t)
	names := []string{"n1", "n2", "n3"}
	addrs := make([]string, len(names))
	peerSpec := make([]string, len(names))
	for i, name := range names {
		port, err := freePort()
		if err != nil {
			t.Fatalf("picking a port: %v", err)
		}
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", port)
		peerSpec[i] = fmt.Sprintf("%s=http://%s", name, addrs[i])
	}
	peers := strings.Join(peerSpec, ",")

	daemons := make([]*daemon, len(names))
	clients := make([]*client, len(names))
	for i, name := range names {
		cfg := daemonConfig{
			workers:       2,
			kernelWorkers: 2,
			queueDepth:    64,
			jobTimeout:    30 * time.Second,
			drainTimeout:  15 * time.Second,
			faultSeed:     1,
			name:          name,
			peers:         peers,
			replication:   2,
			probeInterval: 100 * time.Millisecond,
			probeTimeout:  time.Second,
			probeFails:    2,
		}
		daemons[i] = startDaemonAt(t, bin, cfg, addrs[i])
		clients[i] = newClient(t, daemons[i])
	}
	defer func() {
		for _, d := range daemons {
			d.kill()
		}
	}()

	// Jobs on eight distinct placement keys, submitted through all three
	// entries, so every shard both serves and forwards.
	var ids []string
	var specs []string
	for _, suite := range []string{"pwtk", "hood", "bmw3_2", "msdoor"} {
		for _, scale := range []int{4, 8} {
			specs = append(specs, fmt.Sprintf(
				`{"kind":"coloring","variant":"seq","graph":{"suite":%q,"scale":%d}}`, suite, scale))
		}
	}
	for i, spec := range specs {
		res, err := clients[i%3].submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res.code != http.StatusAccepted {
			t.Fatalf("INVARIANT accept-wellformed: submit %d got %d: %s", i, res.code, res.body)
		}
		if serve.ShardOf(res.view.ID) == "" {
			t.Fatalf("cluster job ID %q carries no shard prefix", res.view.ID)
		}
		ids = append(ids, res.view.ID)
	}
	for _, id := range ids {
		if v := awaitTerminalE2E(t, clients[0], id, 60*time.Second); v.Status != "succeeded" {
			t.Fatalf("job %s finished %s: %s", id, v.Status, v.Error)
		}
	}

	// The victim is whichever shard served the first job; the survivors
	// are everyone else.
	victim := serve.ShardOf(ids[0])
	victimIdx := -1
	for i, name := range names {
		if name == victim {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		t.Fatalf("job ID %q names no cluster member", ids[0])
	}
	var survivors []int
	for i := range names {
		if i != victimIdx {
			survivors = append(survivors, i)
		}
	}
	var victimJobs []string
	for _, id := range ids {
		if serve.ShardOf(id) == victim {
			victimJobs = append(victimJobs, id)
		}
	}

	daemons[victimIdx].killExpected()

	// Survivors must evict the dead peer from their rings within a few
	// probe intervals.
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		evicted := 0
		for _, i := range survivors {
			resp, err := hc.Get(daemons[i].url() + "/healthz")
			if err != nil {
				t.Fatalf("survivor %s healthz: %v", names[i], err)
			}
			var h healthCluster
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("survivor %s healthz: %v", names[i], err)
			}
			stillThere := false
			for _, m := range h.Cluster.Members {
				if m == victim {
					stillThere = true
				}
			}
			if !stillThere {
				evicted++
			}
		}
		if evicted == len(survivors) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("INVARIANT shard-evicted: survivors still list %s as a member 15s after SIGKILL", victim)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, i := range survivors {
		daemons[i].checkAlive()
	}

	// The dead shard's jobs fail loudly: status answers 502 naming the
	// shard, and the result stream ends in a terminal error line.
	entry := clients[survivors[0]]
	for _, id := range victimJobs {
		code, _, err := entry.jobStatus(id)
		if err != nil {
			t.Fatalf("dead-shard status %s: %v", id, err)
		}
		if code != http.StatusBadGateway {
			t.Fatalf("INVARIANT dead-shard-loud: status of %s got %d, want 502", id, code)
		}
		payload, err := entry.result(id)
		if err != nil {
			t.Fatalf("dead-shard result %s: %v", id, err)
		}
		lines := strings.Split(strings.TrimSpace(payload), "\n")
		var last map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("INVARIANT terminal-stream: dead-shard result %s last line %q is not JSON: %v",
				id, lines[len(lines)-1], err)
		}
		if last["type"] != "error" || !strings.Contains(fmt.Sprint(last["error"]), "unreachable") {
			t.Fatalf("INVARIANT dead-shard-loud: result of %s does not end in a terminal error line: %v", id, last)
		}
	}

	// Survivors keep serving, including keys the victim used to own.
	for i, spec := range specs {
		c := clients[survivors[i%len(survivors)]]
		res, err := c.submit(spec)
		if err != nil {
			t.Fatalf("post-kill submit %d: %v", i, err)
		}
		if res.code != http.StatusAccepted {
			t.Fatalf("INVARIANT accept-wellformed: post-kill submit %d got %d: %s", i, res.code, res.body)
		}
		if serve.ShardOf(res.view.ID) == victim {
			t.Fatalf("INVARIANT shard-evicted: post-kill job %s routed to dead shard %s", res.view.ID, victim)
		}
		if v := awaitTerminalE2E(t, c, res.view.ID, 60*time.Second); v.Status != "succeeded" {
			t.Fatalf("post-kill job %s finished %s: %s", res.view.ID, v.Status, v.Error)
		}
	}

	// Per-shard conservation holds on every survivor's cluster view, the
	// summed totals are exactly the field-wise shard sum, and the corpse
	// is reported unreachable rather than silently missing.
	for _, i := range survivors {
		resp, err := hc.Get(daemons[i].url() + "/metricsz")
		if err != nil {
			t.Fatalf("survivor %s metricsz: %v", names[i], err)
		}
		var m metricsCluster
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("survivor %s metricsz: %v", names[i], err)
		}
		conservedTotals(t, m.JobsTotal, names[i]+" local")
		conservedTotals(t, m.Cluster.JobsTotal, names[i]+" summed")
		if len(m.Cluster.Shards) != len(survivors) {
			t.Fatalf("survivor %s cluster block covers %d shards, want %d", names[i], len(m.Cluster.Shards), len(survivors))
		}
		var sum serve.JobTotals
		for shard, jt := range m.Cluster.Shards {
			conservedTotals(t, jt, names[i]+" shard "+shard)
			sum.Add(jt)
		}
		if sum != m.Cluster.JobsTotal {
			t.Fatalf("INVARIANT conservation: survivor %s shard sum %+v != cluster jobs_total %+v",
				names[i], sum, m.Cluster.JobsTotal)
		}
		found := false
		for _, u := range m.Cluster.Unreachable {
			if u == victim {
				found = true
			}
		}
		if !found {
			t.Fatalf("INVARIANT dead-shard-loud: survivor %s does not report %s unreachable: %+v",
				names[i], victim, m.Cluster.Unreachable)
		}
	}

	// Survivors drain cleanly on SIGTERM — cluster mode keeps the
	// drain-bounded and drain-clean invariants.
	for _, i := range survivors {
		daemons[i].terminate()
	}
}
