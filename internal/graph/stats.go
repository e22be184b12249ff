package graph

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarises the structural properties that Table I of the paper
// reports for each test graph, plus a few extras useful for validating the
// synthetic generators.
type Stats struct {
	NumVertices int
	NumEdges    int64
	MaxDegree   int // Δ in the paper
	MinDegree   int
	AvgDegree   float64 // 2|E| / |V|
	DegreeP50   int     // median degree
	DegreeP99   int
	Components  int
}

// ComputeStats gathers Stats for g. It is O(|V| + |E|).
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	s := Stats{
		NumVertices: n,
		NumEdges:    g.NumEdges(),
		AvgDegree:   g.AvgDegree(),
		MinDegree:   math.MaxInt,
	}
	if n == 0 {
		s.MinDegree = 0
		return s
	}
	degs := make([]int, n)
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		degs[v] = d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d < s.MinDegree {
			s.MinDegree = d
		}
	}
	sort.Ints(degs)
	s.DegreeP50 = degs[n/2]
	s.DegreeP99 = degs[min(n-1, n*99/100)]
	_, s.Components = g.ConnectedComponents()
	return s
}

// String formats the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("V=%d E=%d Δ=%d avg=%.2f p50=%d p99=%d comps=%d",
		s.NumVertices, s.NumEdges, s.MaxDegree, s.AvgDegree, s.DegreeP50, s.DegreeP99, s.Components)
}

// DegreeHistogram returns counts[d] = number of vertices of degree d,
// for d in [0, MaxDegree].
func DegreeHistogram(g *Graph) []int64 {
	counts := make([]int64, g.MaxDegree()+1)
	for v := 0; v < g.NumVertices(); v++ {
		counts[g.Degree(int32(v))]++
	}
	return counts
}

// CompareLabelings checks that two component labelings describe the same
// partition of the vertex set: there must be a bijection between the label
// values. Returns the first disagreement found.
func CompareLabelings(want, got []int32) error {
	if len(want) != len(got) {
		return fmt.Errorf("graph: labelings have different lengths %d vs %d", len(want), len(got))
	}
	fwd := make(map[int32]int32)
	rev := make(map[int32]int32)
	for v := range want {
		if w, ok := fwd[want[v]]; ok {
			if w != got[v] {
				return fmt.Errorf("graph: vertex %d: label %d maps to both %d and %d",
					v, want[v], w, got[v])
			}
		} else {
			fwd[want[v]] = got[v]
		}
		if w, ok := rev[got[v]]; ok {
			if w != want[v] {
				return fmt.Errorf("graph: vertex %d: label %d maps back to both %d and %d",
					v, got[v], w, want[v])
			}
		} else {
			rev[got[v]] = want[v]
		}
	}
	return nil
}
