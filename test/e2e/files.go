package e2e

import (
	"fmt"
	"os"
	"path/filepath"

	"micgraph/internal/graphio"
)

// The file pool: small on-disk graphs the oracle submits by path, plus
// deterministic corruption. Corruption never mutates an existing file — it
// writes a new *version* (g0.v1.mtx, g0.v2.mtx, ...), because the daemon
// caches graphs by path: a fresh path guarantees the corrupted bytes are
// actually read instead of served from the cache. The action generator
// mirrors the same version counters, so a generated script references
// exactly the files the pool will have materialised by that point.
//
// poolFiles describes the fixed base files; index is the File field of
// actions. Scale 16 keeps each graph around a thousand vertices — big
// enough to exercise the loaders, small enough that a chaos run is I/O
// trivial.
var poolFiles = []struct {
	suite string
	ext   string
	scale int
}{
	{suite: "pwtk", ext: "mtx", scale: 16},
	{suite: "hood", ext: "bin", scale: 16},
}

// poolFileName is the canonical versioned name, shared by the pool and the
// action generator ($F/<name> in scripts).
func poolFileName(i, version int) string {
	return fmt.Sprintf("g%d.v%d.%s", i, version, poolFiles[i].ext)
}

type filePool struct {
	t    tb
	dir  string
	vers []int
}

// newFilePool generates the base (v0) files into dir.
func newFilePool(t tb, dir string) *filePool {
	t.Helper()
	p := &filePool{t: t, dir: dir, vers: make([]int, len(poolFiles))}
	for i, pf := range poolFiles {
		g, err := graphio.Load("", pf.suite, pf.scale, nil)
		if err != nil {
			t.Fatalf("file pool: generating %s: %v", pf.suite, err)
		}
		path := p.path(i, 0)
		if err := graphio.WriteFile(path, g, graphio.DetectFormat(path), nil); err != nil {
			t.Fatalf("file pool: writing %s: %v", poolFileName(i, 0), err)
		}
	}
	return p
}

func (p *filePool) path(i, version int) string {
	return filepath.Join(p.dir, poolFileName(i, version))
}

// current is the path scripts resolve "$F/g<i>.v<latest>" against.
func (p *filePool) current(i int) string { return p.path(i, p.vers[i]) }

// corrupt writes the next version of file i as a damaged copy of the
// current one and returns its path. The damage is deterministic in
// (file, version): truncation to half length, except for odd versions of
// text formats, which instead have a window of digits xor-ed into
// non-digits mid-file. Both reliably fail the loaders — truncation trips
// the element-count checks, the xor window breaks numeric parsing — so a
// submit referencing a corrupted version must produce a failed job.
func (p *filePool) corrupt(i int) string {
	p.t.Helper()
	raw, err := os.ReadFile(p.current(i))
	if err != nil {
		p.t.Fatalf("file pool: %v", err)
	}
	next := p.vers[i] + 1
	if poolFiles[i].ext != "bin" && next%2 == 1 {
		at := len(raw) * 7 / 10
		for j := at; j < at+16 && j < len(raw); j++ {
			if raw[j] >= '0' && raw[j] <= '9' {
				raw[j] ^= 0x50
			}
		}
	} else {
		raw = raw[:len(raw)/2]
	}
	path := p.path(i, next)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		p.t.Fatalf("file pool: %v", err)
	}
	p.vers[i] = next
	return path
}
