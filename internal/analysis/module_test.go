package analysis_test

import (
	"testing"

	"micgraph/internal/analysis"
)

// TestModuleIsClean is the meta-test behind the CI gate: the full micvet
// suite over the real module must produce zero diagnostics. Any new
// invariant violation fails here (and in the micvet CI job) before the
// -race job could ever catch it dynamically.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.LoadModule("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}

	// The clean verdict below is only meaningful if the whole suite ran:
	// pin the registered analyzer set so dropping one cannot silently
	// weaken the gate.
	want := []string{"goroleak", "resclose", "wallclock"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
	}

	diags, err := analysis.RunAnalyzers(pkgs, all)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestLoadModuleSubset loads two packages of which the first reaches the
// second through packages the patterns did not match (kernels → bfs →
// sched). Those in between must be checked from source: from export data
// they would bring a second sched whose types kernels could not pass on.
// Only the two matched packages come back.
func TestLoadModuleSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks part of the module")
	}
	pkgs, err := analysis.LoadModule("../..", "./internal/kernels/", "./internal/sched/")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if len(got) != 2 || got[0] != "micgraph/internal/kernels" || got[1] != "micgraph/internal/sched" {
		t.Errorf("loaded %v, want micgraph/internal/kernels and micgraph/internal/sched", got)
	}
}
