package coloring

import (
	"context"
	"fmt"
	"sync/atomic"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// Distance-2 coloring: no two vertices at distance ≤ 2 share a color. The
// paper motivates it as the variant used to compress Jacobian and Hessian
// matrices in sparse linear algebra (§I). The greedy algorithm is Algorithm
// 1 with the forbidden set extended to neighbors-of-neighbors. The
// speculative parallel version is the distance-1 round loop (Scratch.color)
// over that neighbourhood: neither the speculate-and-iterate scheme nor the
// argument that a publish-then-verify sweep leaves no clash behind
// (parallel.go) depends on the neighbourhood's radius.

// SeqGreedyD2 colors g so that any two vertices with a common neighbor (or
// an edge) receive different colors, visiting vertices in natural order.
func SeqGreedyD2(g *graph.Graph) Result {
	n := g.NumVertices()
	colors := make([]int32, n)
	// Forbidden colors can reach Δ² + 1, but are marked sparsely; use a map
	// of marks sized by the worst case actually touched.
	forbidden := make(map[int32]int32, 64)
	maxColor := int32(0)
	for v := int32(0); int(v) < n; v++ {
		mark := v + 1 // +1: the map's zero value must not match vertex 0
		for _, w := range g.Adj(v) {
			if c := colors[w]; c > 0 {
				forbidden[c] = mark
			}
			for _, x := range g.Adj(w) {
				if x == v {
					continue
				}
				if c := colors[x]; c > 0 {
					forbidden[c] = mark
				}
			}
		}
		c := int32(1)
		for forbidden[c] == mark {
			c++
		}
		colors[v] = c
		if c > maxColor {
			maxColor = c
		}
	}
	return Result{Colors: colors, NumColors: int(maxColor), Rounds: 1}
}

// ValidateD2 checks a distance-2 coloring: proper at distance 1 and no two
// distinct neighbors of any vertex share a color.
func ValidateD2(g *graph.Graph, colors []int32) error {
	if err := Validate(g, colors); err != nil {
		return err
	}
	seen := make(map[int32]int32)
	for v := 0; v < g.NumVertices(); v++ {
		clear(seen)
		for _, w := range g.Adj(int32(v)) {
			c := colors[w]
			if prev, ok := seen[c]; ok {
				return fmt.Errorf("coloring: vertices %d and %d share color %d at distance 2 via %d",
					prev, w, c, v)
			}
			seen[c] = w
		}
	}
	return nil
}

// ColorTeamD2 runs the iterative speculative distance-2 coloring on an
// OpenMP-style Team with the given loop options, using the scratch's pooled
// state: ColorTeam's round loop over speculateD2.
func (s *Scratch) ColorTeamD2(ctx context.Context, g *graph.Graph, team *sched.Team, opts sched.ForOptions) (Result, error) {
	s.loop.OnTeam(team, opts)
	return s.color(ctx, g, true)
}

// speculateD2 is speculate with the neighbors' neighbors in both walks. The
// gather skips v itself: its color of an earlier round forbids nothing. It
// meets a vertex once per path, so one being colored meanwhile can leave two
// marks, and the marks outnumber the min(Δ², n−1) vertices in reach: a first
// fit that ends on fc's last slot, which no color owns, has passed the
// bound, and v keeps the color it had and is colored again.
func speculateD2(xadj []int64, adj, colors []int32, fc localFC, v, visit int32) bool {
	nbrs := adj[xadj[v]:xadj[v+1]]
	for _, u := range nbrs {
		fc[atomic.LoadInt32(&colors[u])] = visit
		for _, x := range adj[xadj[u]:xadj[u+1]] {
			if x != v {
				fc[atomic.LoadInt32(&colors[x])] = visit
			}
		}
	}
	c := int32(1)
	for fc[c] == visit {
		c++
	}
	if int(c) == len(fc)-1 {
		return true
	}
	atomic.StoreInt32(&colors[v], c)
	for _, u := range nbrs {
		if atomic.LoadInt32(&colors[u]) == c {
			return true
		}
		for _, x := range adj[xadj[u]:xadj[u+1]] {
			if x != v && atomic.LoadInt32(&colors[x]) == c {
				return true
			}
		}
	}
	return false
}
