package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"micgraph/internal/serve"
)

// maxSubmitBody bounds a buffered job-spec body; specs are tiny and the
// buffer is what lets a submit be re-sent to the shard the ring picks.
const maxSubmitBody = 1 << 20

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
	mux.HandleFunc("GET /jobs", n.serveLocalDirect)
	mux.HandleFunc("GET /jobs/{id}", n.handleByID)
	mux.HandleFunc("DELETE /jobs/{id}", n.handleByID)
	mux.HandleFunc("GET /jobs/{id}/result", n.handleResult)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /metricsz", n.handleMetricsz)
	return mux
}

func (n *Node) serveLocalDirect(w http.ResponseWriter, r *http.Request) {
	n.local.ServeHTTP(w, r)
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

// route picks the shard that should serve spec. Kernel (read) jobs may go
// to any of the key's R replicas — each replica holds the graph resident,
// so reads scale across them — under the bounded-load rule; exports and
// sweeps stay with the primary owner. An empty ring answer falls back to
// self: a node that has evicted everyone still serves what it is handed.
func (n *Node) route(spec serve.JobSpec) string {
	key := spec.PlacementKey()
	switch spec.Kind {
	case serve.KindBFS, serve.KindColoring, serve.KindComponents, serve.KindIrregular:
		if pick := PickBounded(n.ring.Replicas(key, n.cfg.Replication), n.load, loadFactor); pick != "" {
			return pick
		}
	}
	if owner := n.ring.Owner(key); owner != "" {
		return owner
	}
	return n.cfg.Self
}

// serveLocal replays a buffered-body request against the local daemon.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	n.local.ServeHTTP(w, r2)
}

func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubmitBody))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: reading job spec: %w", err))
		return
	}
	// Already routed by another entry node: serve locally, no second hop.
	if r.Header.Get(ForwardedHeader) != "" {
		n.serveLocal(w, r, body)
		return
	}
	rid := r.Header.Get(serve.RequestIDHeader)
	if rid == "" {
		rid = n.nextRequestID()
		r.Header.Set(serve.RequestIDHeader, rid)
	}
	var spec serve.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		// Undecodable spec: hand it to the local daemon for its canonical
		// 400 (and its Submitted/Rejected accounting).
		n.serveLocal(w, r, body)
		return
	}
	target := n.route(spec)
	if target == n.cfg.Self {
		n.serveLocal(w, r, body)
		return
	}
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	hdr.Set(serve.RequestIDHeader, rid)
	hdr.Set(ForwardedHeader, n.cfg.Self)
	n.health.NoteSent(target)
	if err := forward(r.Context(), n.cfg.HTTP, http.MethodPost, n.urls[target], "/jobs", body, hdr, w); err != nil {
		forwardError(w, target, err)
	}
}

// ownerOf extracts the shard prefix of a cluster job ID
// ("n2-job-000123" -> "n2"). IDs without a known shard prefix route
// locally (the local daemon answers 404 for jobs it never owned).
func (n *Node) ownerOf(id string) string {
	i := strings.LastIndex(id, "-job-")
	if i <= 0 {
		return ""
	}
	owner := id[:i]
	if _, ok := n.urls[owner]; !ok {
		return ""
	}
	return owner
}

func (n *Node) handleByID(w http.ResponseWriter, r *http.Request) {
	owner := n.ownerOf(r.PathValue("id"))
	if owner == "" || owner == n.cfg.Self || r.Header.Get(ForwardedHeader) != "" {
		n.local.ServeHTTP(w, r)
		return
	}
	hdr := http.Header{}
	hdr.Set(ForwardedHeader, n.cfg.Self)
	if err := forward(r.Context(), n.cfg.HTTP, r.Method, n.urls[owner], r.URL.Path, nil, hdr, w); err != nil {
		forwardError(w, owner, err)
	}
}

func (n *Node) handleResult(w http.ResponseWriter, r *http.Request) {
	owner := n.ownerOf(r.PathValue("id"))
	if owner == "" || owner == n.cfg.Self || r.Header.Get(ForwardedHeader) != "" {
		n.local.ServeHTTP(w, r)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n.urls[owner]+r.URL.Path, nil)
	if err != nil {
		forwardError(w, owner, err)
		return
	}
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	resp, err := n.cfg.HTTP.Do(req)
	if err != nil {
		// The owning shard is gone: the job's stream must not vanish — it
		// ends in a terminal error line, same as any failed job's would.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		terminalErrorLine(w, owner, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		for _, k := range []string{"Content-Type", serve.RequestIDHeader} {
			if v := resp.Header.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	if v := resp.Header.Get(serve.RequestIDHeader); v != "" {
		w.Header().Set(serve.RequestIDHeader, v)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	relayResult(owner, resp.Body, w)
}

func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := captureLocal(n.local, r)
	var body map[string]any
	if err := json.Unmarshal(m.body.Bytes(), &body); err != nil {
		n.serveLocalDirect(w, r)
		return
	}
	body["cluster"] = map[string]any{
		"self":    n.cfg.Self,
		"members": n.ring.Nodes(),
		"peers":   n.peersWithSelfLoad(),
	}
	writeJSONBody(w, m.status, body)
}

// peersWithSelfLoad is the probe snapshot with the local node's load
// filled from its own queue (a node does not probe itself).
func (n *Node) peersWithSelfLoad() []PeerStatus {
	peers := n.health.Peers()
	for i := range peers {
		if peers[i].Name == n.cfg.Self {
			l, _ := n.load(n.cfg.Self)
			peers[i].Load = l
		}
	}
	return peers
}

func (n *Node) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	// ?scope=local answers with the plain shard metrics — it is what this
	// handler fetches from its peers, so the fan-out never recurses.
	if r.URL.Query().Get("scope") == "local" {
		n.serveLocalDirect(w, r)
		return
	}
	m := captureLocal(n.local, r)
	var body map[string]any
	if err := json.Unmarshal(m.body.Bytes(), &body); err != nil {
		n.serveLocalDirect(w, r)
		return
	}

	// One snapshot for both, or a job finishing in between would make them
	// disagree.
	sum := n.srv.Totals()
	shards := map[string]serve.JobTotals{n.cfg.Self: sum}
	var unreachable []string
	for _, p := range n.cfg.Peers {
		if p.Name == n.cfg.Self {
			continue
		}
		t, err := n.fetchPeerTotals(r.Context(), p)
		if err != nil {
			unreachable = append(unreachable, p.Name)
			continue
		}
		shards[p.Name] = t
		sum.Add(t)
	}
	cluster := map[string]any{
		"self":    n.cfg.Self,
		"members": n.ring.Nodes(),
		"peers":   n.peersWithSelfLoad(),
		// shards holds each reachable shard's own jobs_total; every one
		// satisfies the conservation law independently, so jobs_total (their
		// field-wise sum) satisfies it too — the invariant the chaos oracle's
		// shard-kill scenario asserts across survivors.
		"shards":     shards,
		"jobs_total": sum,
	}
	if len(unreachable) > 0 {
		cluster["unreachable"] = unreachable
	}
	body["cluster"] = cluster
	writeJSONBody(w, m.status, body)
}

// fetchPeerTotals scrapes one peer's local jobs_total.
func (n *Node) fetchPeerTotals(ctx context.Context, p Peer) (serve.JobTotals, error) {
	pctx, cancel := context.WithTimeout(ctx, n.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, n.urls[p.Name]+"/metricsz?scope=local", nil)
	if err != nil {
		return serve.JobTotals{}, err
	}
	resp, err := n.cfg.HTTP.Do(req)
	if err != nil {
		return serve.JobTotals{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobTotals{}, fmt.Errorf("metricsz status %d", resp.StatusCode)
	}
	var body struct {
		JobsTotal serve.JobTotals `json:"jobs_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return serve.JobTotals{}, err
	}
	return body.JobsTotal, nil
}

func writeJSONBody(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	writeJSONBody(w, status, map[string]string{"error": err.Error()})
}
