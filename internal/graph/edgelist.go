package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Plain edge-list I/O: the whitespace-separated "u v" per line format used
// by SNAP datasets, Graph 500 generators, and most ad-hoc tooling. Vertex
// ids are 0-based. Lines starting with '#' or '%' are comments. A first line
// "# N vertices, M edges", as WriteEdgeList writes, declares the vertex
// count, so isolated vertices survive a round trip; without one the count is
// max id + 1.

// maxTextVertices is the most vertices a text file of size bytes may declare
// or imply by its largest id: one a byte beyond a floor of 2^20 (an 8 MB
// offset array). The text loaders allocate per vertex only after the whole
// input is read, so the one-line file "0 2000000000" is refused before Build
// asks for its 16 GB offset array. A file spends at least four bytes an edge,
// so the bound binds only where isolated vertices outnumber the file's bytes;
// such a graph belongs in the binary format, whose size states its count.
func maxTextVertices(size int64) int64 { return max(1<<20, size) }

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}

// WriteEdgeList writes each undirected edge once ("u v" with u < v),
// preceded by a comment with the graph dimensions.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# %d vertices, %d edges\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	buf := make([]byte, 0, 32)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Adj(int32(v)) {
			if int32(v) < u {
				buf = buf[:0]
				buf = strconv.AppendInt(buf, int64(v), 10)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(u), 10)
				buf = append(buf, '\n')
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses an edge list. A declared vertex count below max id + 1
// or beyond int32 ids is an error, as is a vertex count, declared or implied,
// beyond maxTextVertices of the input's size. Self loops and duplicates are
// discarded as usual.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	cr := &countingReader{r: r}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var us, vs []int32
	maxID := int32(-1)
	declared, hasHeader := 0, false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			if lineNo == 1 {
				var edges int
				_, err := fmt.Sscanf(line, "# %d vertices, %d edges", &declared, &edges)
				hasHeader = err == nil
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("edgelist: line %d: need two ids, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgelist: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgelist: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("edgelist: line %d: negative vertex id", lineNo)
		}
		us = append(us, int32(u))
		vs = append(vs, int32(v))
		if int32(u) > maxID {
			maxID = int32(u)
		}
		if int32(v) > maxID {
			maxID = int32(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("edgelist: %w", err)
	}
	n := int(maxID) + 1
	if hasHeader {
		if declared < n || declared > maxN {
			return nil, fmt.Errorf("edgelist: header declares %d vertices, want %d to %d", declared, n, maxN)
		}
		n = declared
	}
	if limit := maxTextVertices(cr.n); int64(n) > limit {
		return nil, fmt.Errorf("edgelist: %d vertices from %d bytes of input, more than the %d it may hold", n, cr.n, limit)
	}
	b := NewBuilder(n)
	b.Grow(len(us))
	for i := range us {
		b.AddEdge(us[i], vs[i])
	}
	return b.Build(), nil
}
