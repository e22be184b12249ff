// Package cluster is micserved's peer-to-peer sharded mode: N daemon
// instances share one logical graph/suite cache and job space with no
// coordinator and no gossip. Membership is a static peer list every node
// is started with; placement is a seeded consistent-hash ring every node
// computes identically, so any node can act as the entry point for any
// job. A submitted job is routed by its data key (the graph or suite
// cache key) to the owning shard — or, for kernel (read) jobs, to the
// least-loaded of the key's R replicas under a bounded-load rule — and
// its JSONL result stream flows back through the entry node with the
// serving shard stamped on every line.
//
// The paper's single-device scaling ceiling has an exact analogue here:
// one micserved process is the throughput ceiling of the serving layer,
// and the way past it is partitioning with cheap coordination. The ring
// is the whole coordination protocol: per-peer health probes feed ring
// eviction (a dead shard stops receiving placements within a probe
// interval or two), and each shard is a whole serve.Server with its own
// cache, so a corrupted or fault-injected load poisons at most the shard
// that owns the key — never a neighbour's cache.
//
// Per-shard /metricsz totals each satisfy the serving layer's
// conservation law (submitted = rejected + succeeded + failed +
// cancelled + in_flight); because forwarding counts a job only on the
// shard that admits it, the law survives summation across shards, which
// is what the cluster block of /metricsz exports and the chaos oracle's
// shard-kill scenario asserts.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"micgraph/internal/telemetry"
)

// Peer is one cluster member: a stable name (its shard ID) and the base
// URL the other members reach it at.
type Peer struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// The placement constants every member of a cluster must agree on; no
// deployment has needed other values, so they are not configuration.
const (
	// ringSeed seeds the ring's hash mixing.
	ringSeed = 1
	// ringVNodes is the number of ring points per node. More points smooth
	// the key distribution at the cost of a longer ring.
	ringVNodes = 64
	// loadFactor is the bounded-load constant c: a replica whose in-flight
	// load exceeds ceil(c * mean-over-candidates) spills to a sibling, which
	// caps how hot one shard can run while another replica idles.
	loadFactor = 1.25
)

// Config wires one node of the cluster. Zero values take the documented
// defaults.
type Config struct {
	// Self is this node's name; Peers must contain an entry for it.
	Self string
	// Peers is the full static membership, self included. Order does not
	// matter: placement depends only on the set.
	Peers []Peer

	// Replication is the replica-set size R for hot-graph reads (default
	// 2, clamped to the cluster size). Kernel jobs may be served by any of
	// the key's R replicas; exports and sweeps stay with the primary.
	Replication int

	// ProbeInterval / ProbeTimeout drive the per-peer health probes
	// (defaults 1s / 2s). FailThreshold consecutive probe failures evict
	// the peer from the ring; the first success readmits it.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int

	// Clock is the node's time source (default telemetry.System), behind
	// every probe timestamp so tests can fake it.
	Clock telemetry.Clock
	// Logf, when set, receives membership transitions (peer down/up).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > len(c.Peers) && len(c.Peers) > 0 {
		c.Replication = len(c.Peers)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.Clock == nil {
		c.Clock = telemetry.System
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

func (c Config) validate() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: config needs a self name")
	}
	seen := map[string]bool{}
	found := false
	for _, p := range c.Peers {
		if p.Name == "" || p.URL == "" {
			return fmt.Errorf("cluster: peer %+v needs both name and url", p)
		}
		if strings.Contains(p.Name, "/") {
			return fmt.Errorf("cluster: peer name %q must not contain '/'", p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Name == c.Self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("cluster: peer list does not contain self %q", c.Self)
	}
	return nil
}

// ParsePeers parses the -peers flag value: either a comma-separated list
// of name=url pairs
//
//	n1=http://10.0.0.1:8377,n2=http://10.0.0.2:8377,n3=http://10.0.0.3:8377
//
// or "@path" naming a JSON file holding an array of {"name","url"}
// objects. Peer order is normalised by name so every node derives the
// same membership whatever order its flag listed.
func ParsePeers(s string) ([]Peer, error) {
	if strings.HasPrefix(s, "@") {
		raw, err := os.ReadFile(strings.TrimPrefix(s, "@"))
		if err != nil {
			return nil, fmt.Errorf("cluster: reading peers file: %w", err)
		}
		var peers []Peer
		if err := json.Unmarshal(raw, &peers); err != nil {
			return nil, fmt.Errorf("cluster: peers file %s: %w", strings.TrimPrefix(s, "@"), err)
		}
		sortPeers(peers)
		return peers, nil
	}
	var peers []Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: peer %q is not name=url", part)
		}
		peers = append(peers, Peer{Name: strings.TrimSpace(name), URL: strings.TrimRight(strings.TrimSpace(url), "/")})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers in %q", s)
	}
	sortPeers(peers)
	return peers, nil
}

func sortPeers(peers []Peer) {
	sort.Slice(peers, func(i, j int) bool { return peers[i].Name < peers[j].Name })
}
