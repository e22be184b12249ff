package coloring

import (
	"fmt"
	"sync/atomic"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// Distance-2 coloring: no two vertices at distance ≤ 2 share a color. The
// paper motivates it as the variant used to compress Jacobian and Hessian
// matrices in sparse linear algebra (§I). The greedy algorithm is Algorithm
// 1 with the forbidden set extended to neighbors-of-neighbors, and the
// speculative parallel version follows the paper's two-loop
// tentative/conflict scheme (distance-1 has since folded the detection into
// the coloring loop, see parallel.go).

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

// ColorTeamD2 runs iterative parallel speculative distance-2 coloring on a
// Team. The structure mirrors ColorTeam with the extended forbidden set and
// the distance-2 conflict check.
func ColorTeamD2(g *graph.Graph, team *sched.Team, opts sched.ForOptions) Result {
	n := g.NumVertices()
	colors := make([]int32, n)
	fcs := make([]map[int32]int32, team.Workers())
	for i := range fcs {
		fcs[i] = make(map[int32]int32, 64)
	}
	visit := graph.IdentityPermutation(n)
	res := Result{Colors: colors}
	maxColor := int32(0)

	for len(visit) > 0 {
		res.Rounds++
		locals := make([]int32, team.Workers())
		team.For(len(visit), opts, func(lo, hi, w int) {
			fc := fcs[w]
			localMax := locals[w]
			for i := lo; i < hi; i++ {
				v := visit[i]
				mark := v + 1 // +1: the map's zero value must not match vertex 0
				for _, u := range g.Adj(v) {
					if c := atomic.LoadInt32(&colors[u]); c > 0 {
						fc[c] = mark
					}
					for _, x := range g.Adj(u) {
						if x == v {
							continue
						}
						if c := atomic.LoadInt32(&colors[x]); c > 0 {
							fc[c] = mark
						}
					}
				}
				c := int32(1)
				for fc[c] == mark {
					c++
				}
				atomic.StoreInt32(&colors[v], c)
				if c > localMax {
					localMax = c
				}
			}
			locals[w] = localMax
		})
		for _, lm := range locals {
			if lm > maxColor {
				maxColor = lm
			}
		}

		next := make([]int32, len(visit))
		var count atomic.Int64
		team.For(len(visit), opts, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				v := visit[i]
				if d2ConflictOne(g, colors, v) {
					appendConflict(next, &count, v)
				}
			}
		})
		visit = next[:count.Load()]
		res.Conflicts = append(res.Conflicts, len(visit))
	}
	res.NumColors = int(maxColor)
	return res
}

// d2ConflictOne reports whether v collides with any vertex at distance ≤ 2
// that has a larger id (the smaller endpoint is recolored, as at distance 1).
func d2ConflictOne(g *graph.Graph, colors []int32, v int32) bool {
	cv := atomic.LoadInt32(&colors[v])
	for _, u := range g.Adj(v) {
		if cv == atomic.LoadInt32(&colors[u]) && v < u {
			return true
		}
		for _, x := range g.Adj(u) {
			if x == v {
				continue
			}
			if cv == atomic.LoadInt32(&colors[x]) && v < x {
				return true
			}
		}
	}
	return false
}
