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
// over it. None of those is more than a few of Build's blocks, so graphs of
// paper size follow, built once at the default GOMAXPROCS and skipped under
// -short: RMAT-19, it shuffled and msdoor@1, hundreds of blocks each (taken on
// the commit before Build bucketed its arcs by block), and msdoor@1 shuffled,
// Permute on a clique grid (taken on the commit before Permute wrote its lists
// in order).
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
	check := func(name string, g *graph.Graph, arcs int64, want uint64) {
		if got := csrHash(g); got != want || g.NumArcs() != arcs {
			t.Errorf("GOMAXPROCS=%d %s: %d arcs, hash %#016x; want %d arcs, %#016x",
				runtime.GOMAXPROCS(0), name, g.NumArcs(), got, arcs, want)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, p := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(p)
		for _, c := range golden {
			check(c.name, c.build(), c.arcs, c.want)
		}
	}
	runtime.GOMAXPROCS(procs)

	if testing.Short() {
		return
	}
	rmat := RMAT(19, 16, .57, .19, .19, 1)
	check("rmat-19", rmat, 15481204, 0x1c3c1eda9b7d69b5)
	check("rmat-19-shuffled", rmat.Shuffled(2), 15481204, 0x42194e109aaafa8b)
	msdoor := suiteAt(t, "msdoor", 1)
	check("msdoor@1", msdoor, 18742146, 0xd30abd66d5b07c2d)
	check("msdoor@1-shuffled", msdoor.Shuffled(2), 18742146, 0x13ce21e5852f6915)
}
