package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary graph format: a compact little-endian CSR dump used to cache
// generated graphs between experiment runs (the Matrix Market text format is
// ~10x larger and far slower to parse). Layout:
//
//	magic   [8]byte  "MICGRAPH"
//	version uint32   (1)
//	n       uint64   vertex count
//	arcs    uint64   len(adj) == 2|E|
//	xadj    [n+1]int64
//	adj     [arcs]int32
const (
	binMagic   = "MICGRAPH"
	binVersion = 1
	// maxN is the most vertices a file may declare: vertex ids are int32.
	maxN = 1<<31 - 1
)

// WriteBinary writes g in the compact binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	n := g.NumVertices()
	hdr := []any{uint32(binVersion), uint64(n), uint64(len(g.adj))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if n > 0 {
		if err := binary.Write(bw, binary.LittleEndian, g.xadj); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, g.adj); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph written by WriteBinary and validates its
// structural invariants.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("binio: reading magic: %w", err)
	}
	if string(magic) != binMagic {
		return nil, fmt.Errorf("binio: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("binio: reading version: %w", err)
	}
	if version != binVersion {
		return nil, fmt.Errorf("binio: unsupported version %d", version)
	}
	var n, arcs uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("binio: reading n: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &arcs); err != nil {
		return nil, fmt.Errorf("binio: reading arc count: %w", err)
	}
	// Refuse absurd sizes rather than OOM on corrupt input.
	const sane = 1 << 40
	if n > maxN || arcs > sane {
		return nil, fmt.Errorf("binio: implausible sizes n=%d arcs=%d", n, arcs)
	}
	g := &Graph{}
	if n > 0 {
		var err error
		if g.xadj, err = readWords[int64](br, n+1); err != nil {
			return nil, fmt.Errorf("binio: reading xadj: %w", err)
		}
		// Check the offset array before reading the adjacency array: xadj
		// must start at 0, never decrease, and end exactly at the declared
		// arc count.
		if g.xadj[0] != 0 {
			return nil, fmt.Errorf("binio: xadj[0] = %d, want 0", g.xadj[0])
		}
		for i := uint64(1); i <= n; i++ {
			if g.xadj[i] < g.xadj[i-1] {
				return nil, fmt.Errorf("binio: xadj decreases at %d (%d -> %d)", i, g.xadj[i-1], g.xadj[i])
			}
		}
		if g.xadj[n] != int64(arcs) {
			return nil, fmt.Errorf("binio: xadj[n] = %d, want arc count %d", g.xadj[n], arcs)
		}
		if g.adj, err = readWords[int32](br, arcs); err != nil {
			return nil, fmt.Errorf("binio: reading adj: %w", err)
		}
		for i, w := range g.adj {
			if w < 0 || uint64(w) >= n {
				return nil, fmt.Errorf("binio: adj[%d] = %d outside [0, %d)", i, w, n)
			}
		}
	} else if arcs > 0 {
		return nil, fmt.Errorf("binio: %d arcs with no vertices", arcs)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("binio: corrupt graph: %w", err)
	}
	return g, nil
}

// binPiece is how many words readWords reads at a time.
const binPiece = 1 << 16

// readWords reads count little-endian words, binPiece at a time, into a
// slice that grows (doubling, and to exactly count) only as they arrive. A
// header that declares more than the file holds — hundreds of millions of
// vertices, or 2⁴⁰ arcs — then fails after allocating about what the file
// does hold and one piece, not what it declares.
func readWords[T int32 | int64](r io.Reader, count uint64) ([]T, error) {
	out := make([]T, 0, min(count, binPiece))
	for uint64(len(out)) < count {
		if len(out) == cap(out) {
			grown := make([]T, len(out), min(count, 2*uint64(cap(out))))
			copy(grown, out)
			out = grown
		}
		k := len(out) + int(min(count-uint64(len(out)), binPiece))
		if err := binary.Read(r, binary.LittleEndian, out[len(out):k]); err != nil {
			return nil, err
		}
		out = out[:k]
	}
	return out, nil
}
