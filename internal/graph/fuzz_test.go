package graph

import (
	"bytes"
	"testing"

	"micgraph/internal/xrand"
)

// fuzzSeedGraphs are small but structurally varied graphs whose serialized
// forms seed both fuzz corpora.
func fuzzSeedGraphs(f *testing.F) []*Graph {
	f.Helper()
	return []*Graph{
		MustFromEdges(0, nil),
		MustFromEdges(1, nil),
		MustFromEdges(3, []Edge{{0, 1}, {1, 2}}),
		MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		MustFromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}),
	}
}

// FuzzReadBinary checks that arbitrary bytes never crash the binary loader
// and that anything it accepts is a valid graph that round-trips.
func FuzzReadBinary(f *testing.F) {
	for _, g := range fuzzSeedGraphs(f) {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Truncated and corrupt variants.
	f.Add([]byte("MICGRAPH"))
	f.Add([]byte("MICGRAPH\x01\x00\x00\x00"))
	f.Add([]byte("NOTMAGIC\x01\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; crashing or accepting garbage is not
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("ReadBinary accepted an invalid graph: %v", verr)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("re-serializing accepted graph: %v", err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-reading round trip: %v", err)
		}
		if !g.Equal(g2) {
			t.Fatal("binary round trip changed the graph")
		}
	})
}

// FuzzReadMatrixMarket checks the text loader the same way: no input may
// crash it, and every accepted graph must satisfy the CSR invariants.
func FuzzReadMatrixMarket(f *testing.F) {
	for _, g := range fuzzSeedGraphs(f) {
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n% comment\n2 2 1\n1 2 0.5\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 2\n")) // non-square
	f.Add([]byte("%%MatrixMarket\n"))
	f.Add([]byte(hugeNNZ))
	f.Add([]byte(hugeRows))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("ReadMatrixMarket accepted an invalid graph: %v", verr)
		}
	})
}

// decodeBuild reads data as a vertex count, a number of cliques, that many
// (base, size) pairs and a list of endpoint pairs, any of them loops, repeats
// or edges of a clique.
func decodeBuild(data []byte) (int, []clique, []Edge) {
	n := 1
	if len(data) > 0 {
		n += int(data[0])
		data = data[1:]
	}
	var cliques []clique
	if len(data) > 0 {
		k := min(int(data[0])%8, (len(data)-1)/2)
		for i := 0; i < k; i++ {
			base := int(data[1+2*i]) % n
			cliques = append(cliques, clique{int32(base), int32(int(data[2+2*i]) % (n - base + 1))})
		}
		data = data[1+2*k:]
	}
	edges := make([]Edge, len(data)/2)
	for i := range edges {
		edges[i] = Edge{int32(int(data[2*i]) % n), int32(int(data[2*i+1]) % n)}
	}
	return n, cliques, edges
}

// buildDecoded hands what decodeBuild returned to a Builder and builds it.
func buildDecoded(n int, cliques []clique, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, c := range cliques {
		b.AddClique(c.base, int(c.size))
	}
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// buildCorpus seeds FuzzBuild and FuzzPermute.
var buildCorpus = [][]byte{
	{},
	{0, 0, 0},
	{3, 0, 1, 1, 0, 2, 2, 1, 2, 0, 1},
	{200, 7, 7, 7, 199, 199, 7, 0, 7, 7, 0, 31},
	{9, 3, 0, 10, 4, 3, 9, 1, 5, 2, 2, 5, 8, 8},
	{255, 2, 0, 255, 100, 200, 254, 0, 0, 254, 17, 17},
	overlapSeed,
	hubSeed,
}

// overlapSeed puts vertex 15 of 64 in two overlapping cliques, [14, 24) and
// [10, 18), handed over out of base order, and in [12, 14) inside the second,
// beside [30, 35), which does not hold it. Its strays fall below the joined
// range (2, twice), inside each clique and where they overlap (12, 20 twice,
// 16), between the range and [30, 35) (27, three times), inside [30, 35) (32)
// and above it (60); vertex 14 has strays inside and beyond the range.
var overlapSeed = []byte{63, 4, 14, 10, 10, 8, 12, 2, 30, 5,
	15, 2, 2, 15, 15, 12, 15, 16, 20, 15, 15, 20, 15, 27, 27, 15, 15, 27, 15, 32, 15, 60,
	14, 40, 14, 11}

// hubSeed puts vertex 40 of 100 in the clique [40, 45) and gives it 17
// strays, four times its 4 clique ids: below the clique, inside it, at its
// ends and above it, two of them repeated.
var hubSeed = []byte{99, 1, 40, 5,
	40, 1, 40, 90, 3, 40, 40, 41, 40, 39, 45, 40, 40, 45, 40, 7, 40, 7,
	60, 40, 40, 44, 40, 80, 40, 2, 40, 46, 40, 70, 40, 38, 43, 40}

// FuzzBuild decodes its input with decodeBuild and checks that Build returns
// a valid graph equal to the sequential reference's on the cliques expanded
// edge by edge.
func FuzzBuild(f *testing.F) {
	for _, data := range buildCorpus {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, cliques, edges := decodeBuild(data)
		g := buildDecoded(n, cliques, edges)
		if err := g.Validate(); err != nil {
			t.Fatalf("Build returned an invalid graph: %v", err)
		}
		if !g.Equal(referenceBuild(n, append(expand(cliques), edges...))) {
			t.Fatalf("Build differs from the reference on n=%d %v %v", n, cliques, edges)
		}
	})
}

// FuzzPermute decodes its input with decodeBuild, builds it, relabels it by a
// permutation drawn from seed and checks that Permute returns what the
// sequential reference builds from the relabelled edges.
func FuzzPermute(f *testing.F) {
	for i, data := range buildCorpus {
		f.Add(data, uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		n, cliques, edges := decodeBuild(data)
		perm := xrand.New(seed).Perm(n)
		got, err := buildDecoded(n, cliques, edges).Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		relabelled := append(expand(cliques), edges...)
		for i, e := range relabelled {
			relabelled[i] = Edge{perm[e.U], perm[e.V]}
		}
		if !got.Equal(referenceBuild(n, relabelled)) {
			t.Fatalf("Permute differs from the reference on n=%d %v %v, perm %v", n, cliques, edges, perm)
		}
	})
}
