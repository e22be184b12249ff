package kerneltest

import (
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// FuzzHybridDirectionSwitch drives the direction-optimizing BFS with
// fuzzer-chosen graphs and α/β switch thresholds and checks it against the
// sequential reference. The property under test is that the top-down ↔
// bottom-up switch is invisible in the output: whatever level the switch
// fires at (α=β=1 never leaves top-down, large values sweep bottom-up on
// every level), the level assignment, level count, and width histogram
// must match the oracle exactly, and the shared Validate pass catches any
// frontier entry read out of bounds or claimed twice.
func FuzzHybridDirectionSwitch(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 4}, uint8(3), uint8(1), uint8(1))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5}, uint8(0), uint8(14), uint8(24))
	f.Add([]byte{9, 1, 8, 2, 7, 3, 250, 0}, uint8(200), uint8(1), uint8(100))
	// Both extremes of the switch on one graph (a star with a tail): all
	// levels top-down, all levels bottom-up.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 5, 5, 6}, uint8(6), uint8(1), uint8(1))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 5, 5, 6}, uint8(6), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, src, alpha, beta uint8) {
		// Decode byte pairs as edges over at most 64 vertices; n covers
		// every endpoint and the requested source.
		n := int(src%64) + 1
		edges := make([]graph.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := int32(raw[i]%64), int32(raw[i+1]%64)
			edges = append(edges, graph.Edge{U: u, V: v})
			if int(u) >= n {
				n = int(u) + 1
			}
			if int(v) >= n {
				n = int(v) + 1
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Skip()
		}
		source := int32(src % 64)

		team := sched.NewTeam(4)
		defer team.Close()
		cfg := bfs.HybridConfig{Alpha: int(alpha), Beta: int(beta)}
		got, err := bfs.NewScratch().Hybrid(nil, g, source, team, sched.ForOptions{}, cfg)
		if err != nil {
			t.Fatalf("hybrid(alpha=%d beta=%d): %v", alpha, beta, err)
		}
		CheckBFS(t, "hybrid-fuzz", g, source, got.Result)
	})
}
