package irregular

import (
	"math"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// PageRank on undirected graphs — the algorithm the paper names when
// motivating the microbenchmark ("a reasonable abstraction of a single
// iteration of algorithms such as Page Rank"). The power iteration has the
// exact data-access pattern of Algorithm 5: gather neighbor state, combine,
// scatter to the output vector.

// PageRankOptions configures the power iteration.
type PageRankOptions struct {
	Damping   float64 // damping factor d; 0 selects the standard 0.85
	Tolerance float64 // L1 convergence threshold; 0 selects 1e-8
	MaxIter   int     // iteration cap; 0 selects 100
}

func (o PageRankOptions) damping() float64 {
	if o.Damping <= 0 || o.Damping >= 1 {
		return 0.85
	}
	return o.Damping
}

func (o PageRankOptions) tolerance() float64 {
	if o.Tolerance <= 0 {
		return 1e-8
	}
	return o.Tolerance
}

func (o PageRankOptions) maxIter() int {
	if o.MaxIter <= 0 {
		return 100
	}
	return o.MaxIter
}

// PageRank runs the damped power iteration on team and returns the rank
// vector (summing to 1) and the number of iterations executed. Isolated
// vertices act as dangling nodes whose rank is redistributed uniformly.
// Both sweeps of an iteration run on one Loop bound to team under opts; a
// panic contained in either is raised again, as a *sched.PanicError, on
// the caller's goroutine.
func PageRank(g *graph.Graph, team *sched.Team, opts sched.ForOptions, cfg PageRankOptions) ([]float64, int) {
	n := g.NumVertices()
	if n == 0 {
		return nil, 0
	}
	d := cfg.damping()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}

	var loop sched.Loop
	loop.OnTeam(team, opts)
	deltas := make([]float64, loop.Workers())
	dangling := make([]float64, loop.Workers())
	var base float64
	// The bodies are built once and read rank, next and base as the
	// iterations swap and set them.
	gather := func(lo, hi, w int) {
		local := 0.0
		for v := lo; v < hi; v++ {
			if g.Degree(int32(v)) == 0 {
				local += rank[v]
			}
		}
		dangling[w] += local
	}
	update := func(lo, hi, w int) {
		local := 0.0
		for v := lo; v < hi; v++ {
			sum := 0.0
			for _, u := range g.Adj(int32(v)) {
				sum += rank[u] / float64(g.Degree(u))
			}
			nv := base + d*sum
			local += math.Abs(nv - rank[v])
			next[v] = nv
		}
		deltas[w] += local
	}

	iters := 0
	for ; iters < cfg.maxIter(); iters++ {
		// Dangling mass (isolated vertices) is shared by everyone.
		clear(dangling)
		if err := loop.Run(nil, n, gather); err != nil {
			panic(err)
		}
		danglingMass := 0.0
		for _, x := range dangling {
			danglingMass += x
		}

		base = (1-d)/float64(n) + d*danglingMass/float64(n)
		clear(deltas)
		if err := loop.Run(nil, n, update); err != nil {
			panic(err)
		}
		rank, next = next, rank

		total := 0.0
		for _, x := range deltas {
			total += x
		}
		if total < cfg.tolerance() {
			iters++
			break
		}
	}
	return rank, iters
}
