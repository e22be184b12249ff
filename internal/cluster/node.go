package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"micgraph/internal/serve"
)

// Node is one cluster member: a full micserved core (serve.Server) plus
// the routing layer that makes it act as an entry point for the whole
// cluster. Any node accepts any request; data-keyed requests (submits)
// are routed by the placement ring, ID-keyed requests (status, cancel,
// result) by the shard prefix carried in every cluster job ID.
type Node struct {
	cfg    Config
	srv    *serve.Server
	local  http.Handler
	ring   *Ring
	health *Health
	urls   map[string]string

	mu     sync.Mutex
	reqSeq int64
}

// NewNode builds a cluster node around a serve.Server constructed from
// serveCfg. The server's ShardID is forced to cfg.Self so job IDs are
// shard-prefixed and result lines are stamped; everything else in
// serveCfg (workers, cache budget, fault injection, clock) applies
// unchanged — a shard is just a micserved that knows its name.
func NewNode(cfg Config, serveCfg serve.Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	serveCfg.ShardID = cfg.Self
	if serveCfg.Clock == nil {
		serveCfg.Clock = cfg.Clock
	}
	srv := serve.New(serveCfg)

	ring := NewRing(ringSeed, ringVNodes)
	urls := make(map[string]string, len(cfg.Peers))
	for _, p := range cfg.Peers {
		ring.Add(p.Name)
		urls[p.Name] = strings.TrimRight(p.URL, "/")
	}
	n := &Node{
		cfg:    cfg,
		srv:    srv,
		local:  srv.Handler(),
		ring:   ring,
		health: newHealth(cfg, ring),
		urls:   urls,
	}
	return n, nil
}

// Start launches the node's health probes; they stop when ctx ends.
func (n *Node) Start(ctx context.Context) { n.health.Start(ctx) }

// Server exposes the node's local micserved core.
func (n *Node) Server() *serve.Server { return n.srv }

// Ring exposes the node's placement ring (tests assert eviction and
// placement determinism through it).
func (n *Node) Ring() *Ring { return n.ring }

// Self returns this node's shard name.
func (n *Node) Self() string { return n.cfg.Self }

// Drain drains the local micserved core (the node's own shard of the job
// space); forwarded work on other shards is untouched.
func (n *Node) Drain(ctx context.Context) error { return n.srv.Drain(ctx) }

// Handler returns the cluster-aware HTTP API. It serves the same routes
// as a single-node daemon — clients need no cluster awareness — with
// routing layered on top:
//
//	POST   /jobs             routed by the spec's placement key
//	GET    /jobs             local shard's retained jobs
//	GET    /jobs/{id}        routed by the ID's shard prefix
//	DELETE /jobs/{id}        routed by the ID's shard prefix
//	GET    /jobs/{id}/result routed by prefix; stream relayed line-by-line
//	GET    /healthz          local health + cluster membership block
//	GET    /metricsz         local metrics + per-shard and summed totals
//	                         (?scope=local suppresses the cluster fan-out)
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", n.handleSubmit)
	mux.Handle("GET /jobs", n.local)
	mux.HandleFunc("GET /jobs/{id}", n.handleByID)
	mux.HandleFunc("DELETE /jobs/{id}", n.handleByID)
	mux.HandleFunc("GET /jobs/{id}/result", n.handleResult)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /metricsz", n.handleMetricsz)
	return mux
}

// nextRequestID mints the trace ID stamped on a submission that arrived
// without one: "<entry-node>-r<seq>", unique cluster-wide because entry
// names are.
func (n *Node) nextRequestID() string {
	n.mu.Lock()
	n.reqSeq++
	seq := n.reqSeq
	n.mu.Unlock()
	return fmt.Sprintf("%s-r%06d", n.cfg.Self, seq)
}

// load feeds bounded-load placement: the local queue is read directly
// (always fresh), remote peers from their last health probe.
func (n *Node) load(node string) (int, bool) {
	if node == n.cfg.Self {
		qs := n.srv.Queue().Stats()
		return qs.Queued + qs.Running, true
	}
	return n.health.Load(node)
}

// route picks the shard that should serve spec, a normalized spec (one
// ReadSpec returned). Kernel (read) jobs may go to any of the key's R
// replicas — each replica holds the graph resident, so reads scale across
// them — under the bounded-load rule; exports and sweeps stay with the
// primary owner. An empty ring answer falls back to self: a node that has
// evicted everyone still serves what it is handed.
func (n *Node) route(spec serve.JobSpec) string {
	key := spec.PlacementKey()
	if spec.IsKernel() {
		if pick := PickBounded(n.ring.Replicas(key, n.cfg.Replication), n.load, loadFactor); pick != "" {
			return pick
		}
	}
	if owner := n.ring.Owner(key); owner != "" {
		return owner
	}
	return n.cfg.Self
}

// handleSubmit reads the spec through serve.ReadSpec, as the daemon does,
// and routes only a spec that reads, decodes and validates. One that does
// not is answered by the local daemon, whose 400 or 413 books the refusal
// on this shard: nothing refused is forwarded or counted against a peer's
// load. A submit another entry already routed is served locally, no
// second hop.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(ForwardedHeader) != "" {
		n.local.ServeHTTP(w, r)
		return
	}
	if r.Header.Get(serve.RequestIDHeader) == "" {
		r.Header.Set(serve.RequestIDHeader, n.nextRequestID())
	}
	// The body read is what is re-sent to the shard the ring picks.
	spec, body, err := serve.ReadSpec(r)
	target := n.cfg.Self
	if err == nil {
		target = n.route(spec)
	}
	if target == n.cfg.Self {
		n.srv.AnswerSubmit(w, r, spec, err)
		return
	}
	n.health.NoteSent(target)
	if err := n.forward(w, r, target, body); err != nil {
		forwardError(w, target, err)
	}
}

// remoteOwner names the shard that owns the job r addresses, read from the
// id by serve.ShardOf, when that is another known node and r was not
// already forwarded; "" means serve locally. An id without a known shard
// prefix routes locally too: the local daemon answers 404 for jobs it
// never owned.
func (n *Node) remoteOwner(r *http.Request) string {
	owner := serve.ShardOf(r.PathValue("id"))
	if _, ok := n.urls[owner]; !ok || owner == n.cfg.Self || r.Header.Get(ForwardedHeader) != "" {
		return ""
	}
	return owner
}

func (n *Node) handleByID(w http.ResponseWriter, r *http.Request) {
	owner := n.remoteOwner(r)
	if owner == "" {
		n.local.ServeHTTP(w, r)
		return
	}
	if err := n.forward(w, r, owner, nil); err != nil {
		forwardError(w, owner, err)
	}
}

func (n *Node) handleResult(w http.ResponseWriter, r *http.Request) {
	owner := n.remoteOwner(r)
	if owner == "" {
		n.local.ServeHTTP(w, r)
		return
	}
	if err := n.forward(w, r, owner, nil); err != nil {
		// The owning shard is gone: the job's stream must not vanish — it
		// ends in a terminal error line, same as any failed job's would.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		terminalErrorLine(w, owner, err)
	}
}

// healthBody is a node's /healthz: its shard's own body plus "cluster".
type healthBody struct {
	serve.Health
	Cluster membership `json:"cluster"`
}

// metricsBody is a node's cluster-scope /metricsz: its shard's own body
// plus "cluster".
type metricsBody struct {
	serve.Metrics
	Cluster clusterTotals `json:"cluster"`
}

// membership is the cluster block of /healthz: the ring's members and
// every peer's probe view.
type membership struct {
	Members []string     `json:"members"`
	Peers   []PeerStatus `json:"peers"`
	Self    string       `json:"self"`
}

// clusterTotals is the cluster block of /metricsz. Shards holds each
// reachable shard's own jobs_total; every one satisfies the conservation
// law independently, so JobsTotal (their field-wise sum) satisfies it too
// — the invariant the chaos oracle's shard-kill scenario asserts across
// survivors.
type clusterTotals struct {
	JobsTotal serve.JobTotals `json:"jobs_total"`
	membership
	Shards      map[string]serve.JobTotals `json:"shards"`
	Unreachable []string                   `json:"unreachable,omitempty"`
}

// membership snapshots the ring and the probe view, with the local node's
// load filled from its own queue (a node does not probe itself).
func (n *Node) membership() membership {
	peers := n.health.Peers()
	for i := range peers {
		if peers[i].Name == n.cfg.Self {
			peers[i].Load, _ = n.load(n.cfg.Self)
		}
	}
	return membership{Members: n.ring.Nodes(), Peers: peers, Self: n.cfg.Self}
}

func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, healthBody{n.srv.Health(), n.membership()})
}

func (n *Node) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	// ?scope=local answers with the plain shard metrics — it is what this
	// handler fetches from its peers, so the fan-out never recurses.
	if r.URL.Query().Get("scope") == "local" {
		n.local.ServeHTTP(w, r)
		return
	}
	// The shard's own jobs_total is one snapshot for its body, its row and
	// its share of the sum, or a job finishing in between would make them
	// disagree.
	body := metricsBody{Metrics: n.srv.Metrics()}
	body.Cluster = clusterTotals{
		JobsTotal:  body.JobsTotal,
		membership: n.membership(),
		Shards:     map[string]serve.JobTotals{n.cfg.Self: body.JobsTotal},
	}
	for _, p := range n.cfg.Peers {
		if p.Name == n.cfg.Self {
			continue
		}
		var m serve.Metrics
		ctx, cancel := context.WithTimeout(r.Context(), n.cfg.ProbeTimeout)
		err := serve.GetJSON(ctx, n.urls[p.Name]+"/metricsz?scope=local", &m)
		cancel()
		if err != nil {
			body.Cluster.Unreachable = append(body.Cluster.Unreachable, p.Name)
			continue
		}
		body.Cluster.Shards[p.Name] = m.JobsTotal
		body.Cluster.JobsTotal.Add(m.JobsTotal)
	}
	serve.WriteJSON(w, http.StatusOK, body)
}
