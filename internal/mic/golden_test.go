package mic

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"micgraph/internal/gen"
	"micgraph/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden digests under testdata/ from the current code")

// checkGolden compares got with the committed file, or rewrites the file
// under -update. Floating-point contraction differs between architectures,
// so the digests bind on amd64 only (like bench/golden).
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests bind on amd64 only")
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: simulator output changed (a speed change must not move it)\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestTimelineGolden pins the simulator's full event stream — which thread
// ran which chunk when, at what cost, plus every bandwidth, serialisation and
// barrier event — for a coloring and a BFS trace under every assignment
// style (FCFS dynamic and guided, work stealing, fixed owners) at 1, 31 and
// 121 threads. Recorded at commit 12e1226, before the simulator's
// per-cell work was restructured.
func TestTimelineGolden(t *testing.T) {
	cfg, err := gen.SuiteConfig("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Mesh(gen.Scaled(cfg, 8))
	if err != nil {
		t.Fatal(err)
	}
	m := KNF()
	configs := []Config{
		{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 100},
		{Kind: OpenMP, Policy: sched.Guided, Chunk: 100},
		{Kind: Cilk, Chunk: 100},
		{Kind: TBB, Partitioner: sched.SimplePartitioner, Chunk: 40},
		{Kind: TBB, Partitioner: sched.AffinityPartitioner, Chunk: 40},
	}
	var out bytes.Buffer
	for _, threads := range []int{1, 31, 121} {
		traces := []*Trace{
			ColoringTrace(m, g, NaturalOrder, threads),
			BFSTrace(m, g, int32(g.NumVertices()/2), NaturalOrder, BFSBlockRelaxed, 32),
		}
		for _, tr := range traces {
			for _, cfg := range configs {
				b, st := exportTrace(t, m, cfg, threads, tr)
				sum := sha256.Sum256(b)
				fmt.Fprintf(&out, "%s %s t=%d chunks=%d steals=%d %s\n",
					tr.Name, cfg, threads, st.Chunks, st.Steals, hex.EncodeToString(sum[:]))
			}
		}
	}
	checkGolden(t, "testdata/timeline.sha256", out.Bytes())
}
