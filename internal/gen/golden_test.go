package gen

import (
	"runtime"
	"testing"

	"micgraph/internal/graph"
)

// csrHash is bench/inputs.go's hashGraph re-stated: FNV-1a over the 32-bit
// words of adj, then the 64-bit words of xadj.
func csrHash(g *graph.Graph) uint64 {
	const prime = 1099511628211
	x := uint64(14695981039346656037)
	for _, v := range g.AdjRaw() {
		x = (x ^ uint64(uint32(v))) * prime
	}
	for _, v := range g.Xadj() {
		x = (x ^ uint64(v)) * prime
	}
	return x
}

func suiteAt(t *testing.T, name string, scale int) *graph.Graph {
	t.Helper()
	g, err := Mesh(Scaled(mustConfig(t, name), scale))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGeneratorGolden pins the CSR arrays the generators return, word for
// word, to the values the sequential sort.Slice construction produced (taken
// on the commit before graph construction went parallel) and, from auto@16
// down, to those of the cliques added edge by edge (taken on the commit before
// Builder.AddClique): LinkExact links, the most hubs, the most clique, one
// clique and nothing else, many and little else. The graphs must not depend
// on the worker count, so every entry is built under GOMAXPROCS 1, 2 and 8;
// RMAT(9, 6), auto@16 and the ring stay under the inline cutoff, the rest go
// over it.
func TestGeneratorGolden(t *testing.T) {
	golden := []struct {
		name  string
		build func() *graph.Graph
		arcs  int64
		want  uint64
	}{
		{"rmat-12", func() *graph.Graph { return RMAT(12, 16, .57, .19, .19, 1) }, 96754, 0xa3e4cdbf74df8911},
		{"rmat-12-shuffled", func() *graph.Graph { return RMAT(12, 16, .57, .19, .19, 1).Shuffled(2) }, 96754, 0x2e1192aea3f81391},
		{"rmat-9", func() *graph.Graph { return RMAT(9, 6, .7, .1, .1, 7) }, 3054, 0x5dd73beedd01155f},
		{"erdos-renyi", func() *graph.Graph { return ErdosRenyi(5000, 40000, 3) }, 79848, 0x92ea764ca25349e7},
		{"msdoor@16", func() *graph.Graph { return suiteAt(t, "msdoor", 16) }, 73172, 0x77821ba7bc14ad5b},
		{"pwtk@16", func() *graph.Graph { return suiteAt(t, "pwtk", 16) }, 44094, 0xc1895edef98342d1},
		{"auto@16", func() *graph.Graph { return suiteAt(t, "auto", 16) }, 25872, 0x2a68d1c4b70739bd},
		{"inline_1@16", func() *graph.Graph { return suiteAt(t, "inline_1", 16) }, 139956, 0x19b35e76caf5f11b},
		{"bmw3_2@16", func() *graph.Graph { return suiteAt(t, "bmw3_2", 16) }, 43196, 0xcdb351f0c4315705},
		{"complete-300", func() *graph.Graph { return Complete(300) }, 89700, 0xf937b770e4794327},
		{"ring-of-cliques", func() *graph.Graph { return RingOfCliques(40, 9) }, 2960, 0x817ef0e3d3807cbb},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range golden {
			g := c.build()
			if got := csrHash(g); got != c.want || g.NumArcs() != c.arcs {
				t.Errorf("GOMAXPROCS=%d %s: %d arcs, hash %#016x; want %d arcs, %#016x",
					procs, c.name, g.NumArcs(), got, c.arcs, c.want)
			}
		}
	}
}
