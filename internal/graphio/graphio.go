// Package graphio provides format-dispatching graph file I/O for the
// command-line tools: the serialization formats themselves live in
// internal/graph; this package picks one by file extension.
package graphio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"micgraph/internal/fault"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
)

// Format identifies a graph file serialization.
type Format int

const (
	// MatrixMarket is the UF Sparse Matrix Collection text format (.mtx).
	MatrixMarket Format = iota
	// Binary is this repository's compact CSR dump (.bin).
	Binary
	// EdgeList is the "u v" per line text format (.el, .txt).
	EdgeList
)

// DetectFormat picks a Format from the file extension (MatrixMarket when
// unknown, matching the collection the paper's graphs come from).
func DetectFormat(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".bin":
		return Binary
	case ".el", ".txt":
		return EdgeList
	default:
		return MatrixMarket
	}
}

// ParseFormat converts a -format flag value.
func ParseFormat(name string) (Format, error) {
	switch name {
	case "mtx":
		return MatrixMarket, nil
	case "bin":
		return Binary, nil
	case "el":
		return EdgeList, nil
	}
	return 0, fmt.Errorf("graphio: unknown format %q (want mtx, bin, or el)", name)
}

// Read parses r in the given format. A non-nil injector is interposed on
// the byte stream: the sites "graphio/read/err" (transient read error) and
// "graphio/read/truncate" (premature EOF) exercise the loaders' failure
// paths deterministically. A nil injector reads normally.
func Read(r io.Reader, f Format, in *fault.Injector) (*graph.Graph, error) {
	r = in.Reader("graphio/read", r)
	switch f {
	case Binary:
		return graph.ReadBinary(r)
	case EdgeList:
		return graph.ReadEdgeList(r)
	default:
		return graph.ReadMatrixMarket(r)
	}
}

// Write serialises g to w in the given format.
func Write(w io.Writer, g *graph.Graph, f Format) error {
	switch f {
	case Binary:
		return graph.WriteBinary(w, g)
	case EdgeList:
		return graph.WriteEdgeList(w, g)
	default:
		return graph.WriteMatrixMarket(w, g)
	}
}

// ReadFile opens and parses a graph file, dispatching on its extension; in
// is Read's injector.
func ReadFile(path string, in *fault.Injector) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, DetectFormat(path), in)
}

// WriteFile serialises g to path in the given format. The write is atomic:
// the bytes go to a temporary file in the same directory which is renamed
// over path only after a successful write and close, so a crashed or
// cancelled run can never leave a truncated graph file behind — path either
// keeps its previous contents or holds the complete new serialization. A
// non-nil injector is interposed on the byte stream: the site
// "graphio/write/err" (transient write error) exercises the atomic-replace
// failure path deterministically.
func WriteFile(path string, g *graph.Graph, f Format, in *fault.Injector) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	// Any failure past this point removes the temp file; path is untouched.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := Write(in.Writer("graphio/write", tmp), g, f); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Load resolves the CLI tools' shared -file/-graph convention: a file path
// (any supported format) or a builtin suite graph name with a shrink scale.
// in is Read's injector; suite-graph generation does not touch the
// filesystem and is unaffected by it.
func Load(file, suiteName string, scale int, in *fault.Injector) (*graph.Graph, error) {
	switch {
	case file != "":
		return ReadFile(file, in)
	case suiteName != "":
		cfg, err := gen.SuiteConfig(suiteName)
		if err != nil {
			return nil, err
		}
		return gen.Mesh(gen.Scaled(cfg, scale))
	}
	return nil, fmt.Errorf("graphio: need a file path or a suite graph name")
}
