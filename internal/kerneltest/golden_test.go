package kerneltest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"micgraph/internal/kernels"
	"micgraph/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden digests under testdata/ from the current code")

// TestResultLinesGolden pins the result line of every kernels.Table() entry
// on every corpus graph (from every source, for BFS; under every
// partitioner) as one digest per kind. On a 1-worker Runtime nothing races,
// so the lines — relaxed duplicates, coloring rounds and conflicts,
// components rounds, the irregular checksum — are a pure function of the
// kernel code: a refactor of the round or level loops must leave the
// digests alone, and a change to one kind's kernels moves that kind's only.
// coloring and irregular recorded at commit 22b255f, components at the
// commit that put a compress sweep between label propagation's rounds (the
// one line it moved: er-200-220's labelprop rounds, 4 → 3), bfs at the
// commit that gave hybrid its priced direction rule (only hybrid's
// td_levels/bu_levels moved).
func TestResultLinesGolden(t *testing.T) {
	rt := kernels.NewRuntime(1)
	defer rt.Close()
	kinds := []string{kernels.BFS, kernels.Coloring, kernels.Components, kernels.Irregular}
	hashes := map[string]hash.Hash{}
	for _, k := range kinds {
		hashes[k] = sha256.New()
	}
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
					if err := json.NewEncoder(hashes[e.Kind]).Encode(out.Line(e, nm.Name, p)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	var got strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&got, "%s  %s\n", hex.EncodeToString(hashes[k].Sum(nil)), k)
	}

	const path = "testdata/result_lines.sha256"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("result-line digests\n%sgolden\n%sa kernel's answer changed", got.String(), want)
	}
}
