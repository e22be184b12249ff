package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"

	"micgraph/internal/mic"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden digests under testdata/ from the current code")

// TestRunManyGolden pins every experiment the engine can run — the paper's
// figures, the ablations (abl-direction's bottom-up phases included) and the
// extras — together with every sweep cell's SimStats (chunks, steals, stall
// cycles, throttled and serialised phases), as one digest of the JSON
// report. bench/golden covers core.All only; this is the tier-1 net for a
// change that makes the simulator or the engine faster: it must not move.
// Recorded at commit 12e1226. Floating-point contraction differs between
// architectures, so the digest binds on amd64 only. It must hold at every
// processor count (procCounts): the engine assembles results by index.
func TestRunManyGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range procCounts {
		runtime.GOMAXPROCS(procs)
		runManyGolden(t, procs)
	}
}

// runManyGolden is one pass of TestRunManyGolden, on a fresh suite so that
// what the suite derives and caches is built at this processor count too.
func runManyGolden(t *testing.T, procs int) {
	s, err := NewSuite(8)
	if err != nil {
		t.Fatal(err)
	}
	s.Harness = &Harness{Telemetry: true}
	exps := RunMany(AllIDs(), s, mic.KNF(), mic.HostXeon())
	for _, e := range exps {
		if len(e.Errors) > 0 {
			t.Fatalf("%s: %v", e.ID, e.Errors[0])
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, exps); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])

	const path = "testdata/runmany_scale8.sha256"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digest binds on amd64 only")
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("GOMAXPROCS %d: RunMany JSON digest %s, golden %s: simulated results changed", procs, got, strings.TrimSpace(string(want)))
	}
}
