package cluster

import (
	"math"
	"sort"
	"strconv"
	"sync"
)

// Ring is a seeded consistent-hash ring with virtual nodes. Every cluster
// member builds an identical ring from the shared (seed, membership)
// pair, so placement needs no coordination: Owner and Replicas are pure
// functions of the ring state.
//
// The two properties the tests pin are the classic consistent-hashing
// guarantees: with V virtual nodes per member the key distribution is
// balanced within a constant factor of fair share, and adding or removing
// one of N nodes moves only ~K/N of K keys (the keys whose ring arc the
// change touches) — everything else keeps its owner, which is what keeps
// cache residency warm across membership churn.
type Ring struct {
	mu     sync.RWMutex
	seed   uint64
	vnodes int
	nodes  map[string]bool
	points []point // sorted by hash; len = vnodes * len(nodes)
}

type point struct {
	hash uint64
	node string
}

// NewRing creates an empty ring. All members of one cluster must share
// seed and vnodes (a Node uses ringSeed and ringVNodes); a fixed pair
// makes placement fully deterministic.
func NewRing(seed uint64, vnodes int) *Ring {
	return &Ring{seed: seed, vnodes: vnodes, nodes: make(map[string]bool)}
}

// fnv64a is FNV-1a seeded by folding the ring seed in first, so two rings
// with different seeds place the same keys differently (the determinism
// tests rely on the converse: same seed, same placement).
func (r *Ring) hash(parts ...string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	s := r.seed
	for i := 0; i < 8; i++ {
		h ^= s & 0xff
		h *= prime
		s >>= 8
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime
		}
		h ^= '/'
		h *= prime
	}
	// FNV-1a mixes low bits poorly for short inputs, which shows up as ring
	// imbalance; a splitmix64-style finalizer avalanches the state so vnode
	// points land uniformly.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Add inserts node's virtual points (idempotent).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: r.hash(node, strconv.Itoa(v)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove drops node's virtual points (idempotent). Keys owned by the
// removed node redistribute to their ring successors; every other key
// keeps its owner.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports whether node is currently in the ring.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[node]
}

// Nodes returns the current members, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning key: the first ring point at or after the
// key's hash. "" when the ring is empty.
func (r *Ring) Owner(key string) string {
	reps := r.Replicas(key, 1)
	if len(reps) == 0 {
		return ""
	}
	return reps[0]
}

// Replicas returns up to n distinct nodes for key in ring order, owner
// first. Successive distinct nodes along the ring form the replica set,
// so removing the owner promotes exactly its first replica — minimal
// movement extends to replica sets too.
func (r *Ring) Replicas(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := r.hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// PickBounded chooses a serving node among candidates (ring order, owner
// first) under the bounded-load rule: the owner wins while its current
// load stays within ceil(c * mean candidate load) — cache affinity is
// free when the owner is not overloaded — and an over-bound owner spills
// to the least-loaded candidate (ties resolve in ring order). Spilling to
// the least-loaded rather than the next-in-order replica matters under
// sustained overload: first-fit lets each successive replica soak up to
// the bound before the next sees any work, which re-creates exactly the
// skew the bound exists to prevent. load returns a node's in-flight job
// count and whether it is known (unknown/unhealthy nodes are skipped).
// Returns "" if no candidate has a known load.
func PickBounded(candidates []string, load func(node string) (int, bool), c float64) string {
	type cand struct {
		node string
		load int
	}
	known := make([]cand, 0, len(candidates))
	sum := 0
	for _, n := range candidates {
		l, ok := load(n)
		if !ok {
			continue
		}
		known = append(known, cand{node: n, load: l})
		sum += l
	}
	if len(known) == 0 {
		return ""
	}
	mean := float64(sum) / float64(len(known))
	bound := int(math.Ceil(c * mean))
	if bound < 1 {
		bound = 1
	}
	if known[0].load <= bound {
		return known[0].node
	}
	best := known[0]
	for _, k := range known[1:] {
		if k.load < best.load {
			best = k
		}
	}
	return best.node
}
