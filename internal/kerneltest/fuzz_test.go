package kerneltest

import (
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// FuzzHybridDirectionSwitch drives the direction-optimizing BFS with
// fuzzer-chosen graphs and β gates and checks it against the oracle,
// graph.Levels. The property under test is that the top-down ↔ bottom-up
// switch is invisible in the output: whatever level the switch fires at
// (β=1 never leaves top-down, a large β makes every frontier wide, β=0
// is the default 24), the level assignment, level count, and width
// histogram must match the oracle exactly, and the shared Validate pass
// catches any frontier entry read out of bounds or claimed twice. The
// sequential twin, the same rule at the default gate over one queue, is
// held to the oracle on every graph too.
func FuzzHybridDirectionSwitch(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 4}, uint8(3), uint8(1))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5}, uint8(0), uint8(24))
	f.Add([]byte{9, 1, 8, 2, 7, 3, 250, 0}, uint8(200), uint8(100))
	// Both extremes of the gate on one graph (a star with a tail): all
	// levels top-down, and every level wide, so the source level enters
	// bottom-up and every level after it stays there.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 5, 5, 6}, uint8(6), uint8(1))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 5, 5, 6}, uint8(6), uint8(255))
	// The default gate on the same graph (on twelve arcs every frontier is
	// wide), and on a 5×5 grid from a corner, which enters bottom-up on its
	// widest diagonal by the diagonal's growth alone.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 5, 5, 6}, uint8(6), uint8(0))
	f.Add([]byte{
		0, 1, 0, 5, 1, 2, 1, 6, 2, 3, 2, 7, 3, 4, 3, 8, 4, 9, 5, 6, 5, 10, 6, 7, 6, 11, 7, 8, 7, 12,
		8, 9, 8, 13, 9, 14, 10, 11, 10, 15, 11, 12, 11, 16, 12, 13, 12, 17, 13, 14, 13, 18, 14, 19,
		15, 16, 15, 20, 16, 17, 16, 21, 17, 18, 17, 22, 18, 19, 18, 23, 19, 24, 20, 21, 21, 22, 22, 23, 23, 24,
	}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, src, beta uint8) {
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
		cfg := bfs.HybridConfig{Beta: int(beta)}
		got, err := bfs.NewScratch().Hybrid(nil, g, source, team, sched.ForOptions{}, cfg)
		if err != nil {
			t.Fatalf("hybrid(beta=%d): %v", beta, err)
		}
		CheckBFS(t, "hybrid-fuzz", g, source, got.Result)
		CheckBFS(t, "sequential-fuzz", g, source, bfs.Sequential(g, source))
	})
}
