package graph

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%100) + 1
		m := int(mRaw % 500)
		g := randomGraph(seed, n, m)
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, g); err != nil {
			return false
		}
		h, err := ReadMatrixMarket(&buf)
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadMatrixMarketGeneralWithValues(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment line
4 4 5
1 2 3.5
2 1 3.5
3 4 -1.0e2
1 1 7.0
4 3 2
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 2 {
		t.Errorf("got %s, want V=4 E=2 (diagonal dropped, duplicates merged)", g)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Error("expected edges missing")
	}
}

// Size lines that claim more than the file holds: the loader must refuse
// them with an error, neither trusting nnz with an allocation nor wrapping a
// row past int32.
const (
	hugeNNZ  = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 100000000000\n"
	hugeRows = "%%MatrixMarket matrix coordinate pattern symmetric\n3000000000 3000000000 1\n3000000000 1\n"
	// Rows that fit int32 ids but not a 50-byte file.
	manyRows = "%%MatrixMarket matrix coordinate pattern symmetric\n2000000000 2000000000 0\n"
)

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"huge nnz":     hugeNNZ,
		"huge rows":    hugeRows,
		"many rows":    manyRows,
		"empty":        "",
		"bad header":   "%%MatrixMarket matrix array real general\n2 2 0\n",
		"bad field":    "%%MatrixMarket matrix coordinate complex symmetric\n2 2 0\n",
		"bad symmetry": "%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 0\n",
		"non-square":   "%%MatrixMarket matrix coordinate pattern symmetric\n2 3 0\n",
		"short entry":  "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1\n",
		"out of range": "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 3\n",
		"truncated":    "%%MatrixMarket matrix coordinate pattern symmetric\n5 5 3\n1 2\n",
		"bad size":     "%%MatrixMarket matrix coordinate pattern symmetric\nx y z\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %q: error expected", name)
		}
	}
}

func TestReadMatrixMarketEmptyGraph(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern symmetric\n0 0 0\n"
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 {
		t.Errorf("V = %d, want 0", g.NumVertices())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw % 100)
		m := int(mRaw % 500)
		var g *Graph
		if n == 0 {
			g = &Graph{}
		} else {
			g = randomGraph(seed, n, m)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return g.NumVertices() == h.NumVertices() && (g.NumVertices() == 0 || g.Equal(h))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := complete(5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}

	// Truncation.
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Error("truncated stream accepted")
	}

	// Corrupt adjacency payload (out-of-range neighbor) must fail Validate.
	bad = append([]byte{}, data...)
	bad[len(bad)-1] = 0x7f
	bad[len(bad)-2] = 0x7f
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt adjacency accepted")
	}
}

func TestWriteMatrixMarketHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, path(3)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n") {
		t.Errorf("unexpected header/size: %q", out)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%100) + 1
		m := int(mRaw % 500)
		g := randomGraph(seed, n, m)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		h, err := ReadEdgeList(&buf) // the header keeps trailing isolated vertices
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% also comment\n0 1\n\n1 2 extra-ignored\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Errorf("got %s, want V=3 E=2", g)
	}
}

// Edge lists that imply or declare two billion vertices in a line: the
// loader must refuse them by the input's size before Build allocates 16 GB.
const (
	hugeID       = "0 2000000000\n"
	hugeDeclared = "# 2000000000 vertices, 0 edges\n"
)

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"short line": "0\n",
		"non-number": "a b\n",
		"negative":   "-1 2\n",
		"huge id":    hugeID,
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("case %q: error expected", name)
		}
	}
}

// TestReadEdgeListHeader: a first line "# N vertices, M edges" sets the
// vertex count, within [max id + 1, int32 ids]; anywhere else it is a comment.
func TestReadEdgeListHeader(t *testing.T) {
	for in, want := range map[string]int{
		"# 10 vertices, 1 edges\n0 1\n": 10,
		"# 2 vertices, 1 edges\n0 1\n":  2,
		"# 0 vertices, 0 edges\n":       0,
		"0 1\n# 10 vertices, 1 edges\n": 2,
		"# 10 nodes\n0 1\n":             2,
		"# 1048576 vertices, 0 edges\n": 1 << 20, // the floor of maxTextVertices
	} {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			t.Errorf("%q: %v", in, err)
		} else if g.NumVertices() != want {
			t.Errorf("%q: V = %d, want %d", in, g.NumVertices(), want)
		}
	}
	for _, in := range []string{
		"# 2 vertices, 1 edges\n0 5\n",
		"# -1 vertices, 0 edges\n",
		"# 2147483648 vertices, 0 edges\n",
		hugeDeclared,
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%q: error expected", in)
		}
	}
}

// TestBinaryAllocationBounded feeds ReadBinary short files whose headers
// declare far more than they hold: about 805 M vertices, and one vertex
// whose offsets declare 2⁴⁰ arcs. Each must fail having allocated about the
// file and a piece, not the 6.4 GB or 4 TB its header asks for. A graph of
// several pieces still reads back whole.
func TestBinaryAllocationBounded(t *testing.T) {
	header := func(n, arcs uint64, words ...int64) []byte {
		var buf bytes.Buffer
		buf.WriteString(binMagic)
		for _, v := range []any{uint32(binVersion), n, arcs, words} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		return append(buf.Bytes(), 1, 2, 3)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"805M vertices", header(805_306_368, 0, 0, 0, 0)},
		{"2^40 arcs", header(1, 1<<40, 0, 1<<40)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
			t.Errorf("%s: allocated %d MiB reading %d bytes, want at most 64", tc.name, got>>20, len(tc.data))
		}
	}

	g := complete(400) // 159 600 arcs, three pieces
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) || cap(h.xadj) != len(h.xadj) || cap(h.adj) != len(h.adj) {
		t.Errorf("complete(400) read back differently, or with spare capacity")
	}
}
