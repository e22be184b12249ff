package graphio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"micgraph/internal/fault"
	"micgraph/internal/gen"
)

func TestDetectFormat(t *testing.T) {
	cases := map[string]Format{
		"a.mtx":     MatrixMarket,
		"a.BIN":     Binary,
		"dir/a.el":  EdgeList,
		"a.txt":     EdgeList,
		"noext":     MatrixMarket,
		"weird.xyz": MatrixMarket,
	}
	for path, want := range cases {
		if got := DetectFormat(path); got != want {
			t.Errorf("DetectFormat(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for name, want := range map[string]Format{"mtx": MatrixMarket, "bin": Binary, "el": EdgeList} {
		got, err := ParseFormat(name)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseFormat("json"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRoundTripAllFormats(t *testing.T) {
	g := gen.RingOfCliques(12, 5)
	for _, f := range []Format{MatrixMarket, Binary, EdgeList} {
		var buf bytes.Buffer
		if err := Write(&buf, g, f); err != nil {
			t.Fatalf("format %v: %v", f, err)
		}
		h, err := Read(&buf, f, nil)
		if err != nil {
			t.Fatalf("format %v: %v", f, err)
		}
		if !g.Equal(h) {
			t.Errorf("format %v: round trip changed the graph", f)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := gen.Grid2D(9, 7)
	dir := t.TempDir()
	for _, name := range []string{"g.mtx", "g.bin", "g.el"} {
		path := filepath.Join(dir, name)
		format := DetectFormat(path)
		if err := WriteFile(path, g, format, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h, err := ReadFile(path, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !g.Equal(h) {
			t.Errorf("%s: file round trip changed the graph", name)
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.mtx"), nil); err == nil {
		t.Error("missing file accepted")
	}
	if err := WriteFile(filepath.Join(dir, "nodir", "x.mtx"), g, MatrixMarket, nil); err == nil {
		t.Error("unwritable path accepted")
	}
	if !os.IsNotExist(errOf(ReadFile(filepath.Join(dir, "missing.mtx"), nil))) {
		t.Error("missing file error is not os.IsNotExist")
	}
}

func errOf(_ any, err error) error { return err }

// TestWriteFileAtomic exercises the temp-file+rename discipline: a write
// that fails mid-stream must leave an existing file byte-identical and must
// not litter the directory with temp files.
func TestWriteFileAtomic(t *testing.T) {
	g := gen.Grid2D(9, 7)
	h := gen.RingOfCliques(8, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := WriteFile(path, g, Binary, nil); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	in := fault.New(7)
	in.EnableAt("graphio/write/err", 1)
	if err := WriteFile(path, h, Binary, in); err == nil {
		t.Fatal("injected write error not surfaced")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed write changed the existing file")
	}
	got, err := ReadFile(path, nil)
	if err != nil || !g.Equal(got) {
		t.Errorf("existing file no longer parses to the old graph: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.bin" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("temp file litter after failed write: %v", names)
	}

	// A later uninjected write replaces the file completely.
	if err := WriteFile(path, h, Binary, nil); err != nil {
		t.Fatal(err)
	}
	got, err = ReadFile(path, nil)
	if err != nil || !h.Equal(got) {
		t.Errorf("replacement write not visible: %v", err)
	}
}

func TestLoad(t *testing.T) {
	g, err := Load("", "pwtk", 16, nil)
	if err != nil || g.NumVertices() == 0 {
		t.Fatalf("Load suite: %v", err)
	}
	if _, err := Load("", "bogus", 1, nil); err == nil {
		t.Error("unknown suite graph accepted")
	}
	if _, err := Load("", "", 1, nil); err == nil {
		t.Error("empty spec accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := WriteFile(path, g, Binary, nil); err != nil {
		t.Fatal(err)
	}
	h, err := Load(path, "", 1, nil)
	if err != nil || !g.Equal(h) {
		t.Errorf("Load file: %v", err)
	}
}
