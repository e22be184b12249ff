package kerneltest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"micgraph/internal/kernels"
	"micgraph/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden digest under testdata/ from the current code")

// TestResultLinesGolden pins the result line of every kernels.Table() entry
// on every corpus graph (from every source, for BFS; under every
// partitioner) as one digest. On a 1-worker Runtime nothing races, so the
// lines — relaxed duplicates, coloring rounds and conflicts, the irregular
// checksum — are a pure function of the kernel code: a refactor of the
// round or level loops must leave the digest alone. Recorded at commit
// de858bb.
func TestResultLinesGolden(t *testing.T) {
	rt := kernels.NewRuntime(1)
	defer rt.Close()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, nm := range Corpus() {
		for _, e := range kernels.Table() {
			sources := []int32{0}
			if e.Kind == kernels.BFS {
				sources = Sources(nm.G)
			}
			for _, src := range sources {
				for _, part := range []sched.Partitioner{sched.SimplePartitioner, sched.AutoPartitioner, sched.AffinityPartitioner} {
					p := kernels.Params{Source: src, Chunk: 16, Iters: 3, Policy: sched.Dynamic, Partitioner: part}
					out, err := e.Run(context.Background(), rt, nm.G, p)
					if err != nil {
						t.Fatalf("%s/%s/%s from %d (%s): %v", nm.Name, e.Kind, e.Variant, src, part, err)
					}
					if err := enc.Encode(out.Line(e, nm.Name, p)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))

	const path = "testdata/result_lines.sha256"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("result-line digest %s, golden %s: a kernel's answer changed", got, strings.TrimSpace(string(want)))
	}
}
