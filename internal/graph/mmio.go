package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The paper's graphs come from the University of Florida Sparse Matrix
// Collection, distributed in Matrix Market coordinate format. This file
// implements enough of that format to read and write the pattern of square
// symmetric matrices as undirected graphs: header line
// "%%MatrixMarket matrix coordinate <field> <symmetry>", comment lines
// starting with '%', a size line "rows cols nnz", then one "i j [value]"
// entry per line with 1-based indices. Numeric values are accepted and
// ignored (the kernels are structure-only).

// WriteMatrixMarket writes g in Matrix Market coordinate pattern symmetric
// format. Each undirected edge is emitted once, as "u v" with u > v
// (lower-triangular), 1-based.
func WriteMatrixMarket(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := g.NumVertices()
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern symmetric\n%d %d %d\n", n, n, g.NumEdges()); err != nil {
		return err
	}
	buf := make([]byte, 0, 32)
	for v := 0; v < n; v++ {
		for _, u := range g.Adj(int32(v)) {
			if u < int32(v) { // emit lower triangle: row v+1 > col u+1
				buf = buf[:0]
				buf = strconv.AppendInt(buf, int64(v)+1, 10)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(u)+1, 10)
				buf = append(buf, '\n')
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a Matrix Market coordinate file as an undirected
// graph. The matrix must be square. Both "symmetric" and "general" symmetry
// are accepted; in either case entry (i,j) adds edge {i-1,j-1}. Self loops
// (diagonal entries) are dropped, duplicates are merged, consistent with how
// the paper treats matrices as graphs. More rows than maxTextVertices of the
// input's size is an error.
func ReadMatrixMarket(r io.Reader) (*Graph, error) {
	cr := &countingReader{r: r}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty input: %w", sc.Err())
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("mmio: unsupported header %q (need matrix coordinate)", sc.Text())
	}
	switch header[3] {
	case "pattern", "real", "integer":
	default:
		return nil, fmt.Errorf("mmio: unsupported field type %q", header[3])
	}
	hasValue := header[3] != "pattern"
	switch header[4] {
	case "symmetric", "general":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", header[4])
	}

	// Skip comments, find the size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("mmio: missing size line: %w", sc.Err())
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("mmio: bad size line %q: %v", line, err)
		}
		break
	}
	if rows != cols {
		return nil, fmt.Errorf("mmio: non-square matrix %dx%d", rows, cols)
	}
	if rows < 0 || nnz < 0 {
		return nil, fmt.Errorf("mmio: negative dimensions in size line")
	}
	if rows > maxN {
		return nil, fmt.Errorf("mmio: %d rows do not fit int32 vertex ids", rows)
	}

	// The edge slices grow as entries arrive: nnz is the file's claim, and a
	// pre-grow would trust it with the allocation.
	b := NewBuilder(rows)
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("mmio: expected %d entries, got %d: %w", nnz, read, sc.Err())
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		i, j, err := parseEntry(line, hasValue)
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: %v", read+1, err)
		}
		if i < 1 || i > rows || j < 1 || j > rows {
			return nil, fmt.Errorf("mmio: entry %d (%d,%d) out of range [1,%d]", read+1, i, j, rows)
		}
		if i != j {
			b.AddEdge(int32(i-1), int32(j-1))
		}
		read++
	}
	if limit := maxTextVertices(cr.n); int64(rows) > limit {
		return nil, fmt.Errorf("mmio: %d rows from %d bytes of input, more than the %d it may hold", rows, cr.n, limit)
	}
	return b.Build(), nil
}

func parseEntry(line string, hasValue bool) (i, j int, err error) {
	fields := strings.Fields(line)
	want := 2
	if hasValue {
		want = 3
	}
	if len(fields) < want {
		return 0, 0, fmt.Errorf("short entry %q", line)
	}
	if i, err = strconv.Atoi(fields[0]); err != nil {
		return 0, 0, err
	}
	if j, err = strconv.Atoi(fields[1]); err != nil {
		return 0, 0, err
	}
	return i, j, nil
}
