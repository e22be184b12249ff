package coloring_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"micgraph/internal/coloring"
	"micgraph/internal/graph"
	"micgraph/internal/kerneltest"
	"micgraph/internal/sched"
)

// checkOpts hands every worker one vertex per claim and never runs inline,
// so the chunks of one check interleave as finely as the engine allows.
var checkOpts = sched.ForOptions{Policy: sched.Dynamic, Chunk: 1, SerialBelow: -1}

// lowerArcs lists g's edges as (lower, higher) pairs, by higher end.
func lowerArcs(g *graph.Graph) [][2]int32 {
	var arcs [][2]int32
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Adj(v) {
			if u < v {
				arcs = append(arcs, [2]int32{u, v})
			}
		}
	}
	return arcs
}

// TestCheckMatchesValidate holds the engine check to Validate: on every
// corpus graph, at 1, 2 and 3 workers, both accept the colorings SeqGreedy
// and ColorTeam produce and return the same error, text for text, on each
// way a coloring can be broken. A dynamic schedule starts worker w at vertex
// wn/W, so the higher ends picked below are claimed before the lower ones,
// and the lowest bad vertex is found last.
func TestCheckMatchesValidate(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		team := sched.NewTeam(workers)
		s := coloring.NewScratch()
		for _, nm := range kerneltest.Corpus() {
			g, n := nm.G, nm.G.NumVertices()
			agree := func(what string, colors []int32, wantIn string) {
				t.Helper()
				want := coloring.Validate(g, colors)
				got := s.Check(nil, g, colors, team, checkOpts)
				name := fmt.Sprintf("W=%d %s %s", workers, nm.Name, what)
				switch {
				case (got == nil) != (want == nil) || got != nil && got.Error() != want.Error():
					t.Errorf("%s: Check = %v, Validate = %v", name, got, want)
				case wantIn == "" && want != nil:
					t.Errorf("%s: valid coloring rejected: %v", name, want)
				case wantIn != "" && (want == nil || !strings.Contains(want.Error(), wantIn)):
					t.Errorf("%s: Validate = %v, want an error containing %q", name, want, wantIn)
				}
			}
			seq := coloring.SeqGreedy(g).Colors
			agree("SeqGreedy", seq, "")
			res, err := s.ColorTeam(nil, g, team, checkOpts)
			if err != nil {
				t.Fatal(err)
			}
			agree("ColorTeam", res.Colors, "")
			agree("short slice", seq[:n-1], fmt.Sprintf("%d colors for %d vertices", n-1, n))

			bad := slices.Clone(seq)
			bad[n-1] = 0
			agree("uncolored last vertex", bad, fmt.Sprintf("vertex %d uncolored", n-1))

			arcs := lowerArcs(g)
			if len(arcs) == 0 {
				continue
			}
			// The widest edge: its lower end sits in an earlier worker's
			// part of the schedule than its higher end.
			wide := arcs[0]
			for _, a := range arcs {
				if a[1]-a[0] > wide[1]-wide[0] {
					wide = a
				}
			}
			bad = slices.Clone(seq)
			bad[wide[1]] = bad[wide[0]]
			agree("widest edge monochromatic", bad, fmt.Sprintf(",%d) monochromatic", wide[1]))

			// Two clashes, at the lowest and the highest higher end: the
			// lower one is reported.
			first, last := arcs[0], arcs[len(arcs)-1]
			if first[1] == last[1] {
				continue
			}
			bad = slices.Clone(seq)
			bad[first[1]] = bad[first[0]]
			bad[last[1]] = bad[last[0]]
			agree("two clashes", bad, fmt.Sprintf("(%d,%d) monochromatic", first[0], first[1]))
		}
		team.Close()
	}
}
