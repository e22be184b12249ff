package bfs_test

import (
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/gen"
	"micgraph/internal/kerneltest"
)

// TestSequentialMatchesLevels holds the twin to the oracle, graph.Levels, on
// every corpus graph from each of its sources: the levels, their count and
// widths, one queue entry per reached vertex and no duplicate. A shuffled
// RMAT-12 from a neighbour of its largest hub starts thin and widens by
// orders of magnitude, so the direction rule takes a bottom-up level there,
// which the test asserts: the sweep is checked, not only the queue.
func TestSequentialMatchesLevels(t *testing.T) {
	rmat := gen.RMAT(12, 16, 0.57, 0.19, 0.19, 1).Shuffled(2)
	hub := int32(0)
	for v := int32(1); int(v) < rmat.NumVertices(); v++ {
		if rmat.Degree(v) > rmat.Degree(hub) {
			hub = v
		}
	}
	thin := rmat.Adj(hub)[0]
	corpus := append(kerneltest.Corpus(), kerneltest.Named{Name: "rmat-12-shuffled", G: rmat})
	for _, nm := range corpus {
		for _, src := range kerneltest.Sources(nm.G) {
			checkSequential(t, nm, src)
		}
	}
	if res := checkSequential(t, corpus[len(corpus)-1], thin); res.BottomUpLevels == 0 {
		t.Errorf("rmat-12-shuffled from %d: no bottom-up level in %d", thin, res.NumLevels)
	}
}

// checkSequential runs the twin on nm from src and checks it against the
// oracle.
func checkSequential(t *testing.T, nm kerneltest.Named, src int32) bfs.HybridResult {
	t.Helper()
	res := bfs.SequentialWithDirections(nm.G, src)
	kerneltest.CheckBFS(t, nm.Name, nm.G, src, res.Result)
	var reached int64
	for _, w := range res.Widths {
		reached += w
	}
	if res.Processed != reached || res.Duplicates != 0 {
		t.Errorf("%s from %d: processed %d with %d duplicates, want %d and 0",
			nm.Name, src, res.Processed, res.Duplicates, reached)
	}
	if res.TopDownLevels+res.BottomUpLevels != res.NumLevels {
		t.Errorf("%s from %d: directions %d+%d for %d levels",
			nm.Name, src, res.TopDownLevels, res.BottomUpLevels, res.NumLevels)
	}
	return res
}
