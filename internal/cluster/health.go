package cluster

import (
	"context"
	"sync"
	"time"

	"micgraph/internal/serve"
)

// Health runs the cluster's per-peer liveness probes: every node probes
// every other peer's /healthz at ProbeInterval. FailThreshold consecutive
// failures evict the peer from the placement ring — placements stop
// flowing to a dead shard within a probe interval or two — and the first
// successful probe afterwards readmits it. A node never probes (and so
// never evicts) itself.
//
// Probes double as the load feed for bounded-load placement: a healthy
// peer's queued+running count is remembered and consulted when picking
// among a key's replicas.
type Health struct {
	cfg  Config
	ring *Ring

	mu    sync.Mutex
	state map[string]*peerState
}

type peerState struct {
	url       string
	healthy   bool
	failures  int
	load      int
	lastErr   string
	lastProbe time.Time
}

// PeerStatus is one peer's probe view, exported in /healthz and
// /metricsz cluster blocks.
type PeerStatus struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Load      int    `json:"load"`
	Failures  int    `json:"failures,omitempty"`
	LastError string `json:"last_error,omitempty"`
	LastProbe string `json:"last_probe,omitempty"`
}

func newHealth(cfg Config, ring *Ring) *Health {
	h := &Health{cfg: cfg, ring: ring, state: make(map[string]*peerState)}
	for _, p := range cfg.Peers {
		// Peers start healthy: a cold cluster must not refuse placements
		// before the first probe round completes.
		h.state[p.Name] = &peerState{url: p.URL, healthy: true}
	}
	return h
}

// Start launches one prober goroutine per remote peer; they stop when ctx
// ends.
func (h *Health) Start(ctx context.Context) {
	for _, p := range h.cfg.Peers {
		if p.Name == h.cfg.Self {
			continue
		}
		go h.probeLoop(ctx, p)
	}
}

func (h *Health) probeLoop(ctx context.Context, p Peer) {
	t := time.NewTicker(h.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			h.probe(ctx, p)
		}
	}
}

// probe runs one health check against p and applies the transition rules.
// Ring mutations happen outside h.mu (the ring has its own lock) but the
// decision is made inside it, so down/up transitions are serialised per
// peer by the single prober goroutine that owns it.
func (h *Health) probe(ctx context.Context, p Peer) {
	var body serve.Health
	pctx, cancel := context.WithTimeout(ctx, h.cfg.ProbeTimeout)
	err := serve.GetJSON(pctx, p.URL+"/healthz", &body)
	cancel()

	h.mu.Lock()
	st := h.state[p.Name]
	st.lastProbe = h.cfg.Clock.Now()
	if err != nil {
		st.failures++
		st.lastErr = err.Error()
		evict := st.healthy && st.failures >= h.cfg.FailThreshold
		if evict {
			st.healthy = false
		}
		failures := st.failures
		h.mu.Unlock()
		if evict {
			h.ring.Remove(p.Name)
			h.cfg.Logf("cluster: peer %s down after %d failed probes: %v", p.Name, failures, err)
		}
		return
	}
	st.failures = 0
	st.lastErr = ""
	st.load = body.Queue.Queued + body.Queue.Running
	readmit := !st.healthy
	st.healthy = true
	h.mu.Unlock()
	if readmit {
		h.ring.Add(p.Name)
		h.cfg.Logf("cluster: peer %s back up", p.Name)
	}
}

// NoteSent optimistically bumps node's tracked load by one forwarded job.
// The next successful probe overwrites the estimate with the peer's real
// queue depth; between probes the bump keeps bounded-load placement from
// herding every forward onto the peer whose last-probed load happened to
// be lowest (the probe interval is long compared to the submit rate, so
// without it a whole interval's worth of jobs would pile onto one pick).
func (h *Health) NoteSent(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st, ok := h.state[node]; ok && st.healthy {
		st.load++
	}
}

// Load returns node's last probed load and whether the node is currently
// healthy. The local node is not tracked here (its load is read directly
// from its own queue by the Node).
func (h *Health) Load(node string) (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.state[node]
	if !ok || !st.healthy {
		return 0, false
	}
	return st.load, true
}

// Peers snapshots every peer's probe status, sorted by name (self
// included, always healthy with zero probe data).
func (h *Health) Peers() []PeerStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]PeerStatus, 0, len(h.cfg.Peers))
	for _, p := range h.cfg.Peers {
		st := h.state[p.Name]
		ps := PeerStatus{
			Name:    p.Name,
			URL:     p.URL,
			Healthy: st.healthy,
			Load:    st.load,
		}
		if p.Name != h.cfg.Self {
			ps.Failures = st.failures
			ps.LastError = st.lastErr
			if !st.lastProbe.IsZero() {
				ps.LastProbe = st.lastProbe.UTC().Format(time.RFC3339Nano)
			}
		}
		out = append(out, ps)
	}
	return out
}
