package micgraph

import (
	"math"
	"testing"

	"micgraph/internal/kernels"
)

func TestFacadeSuiteGraph(t *testing.T) {
	names := SuiteNames()
	if len(names) != 7 || names[0] != "auto" || names[6] != "pwtk" {
		t.Fatalf("SuiteNames = %v", names)
	}
	g, err := SuiteGraph("hood", 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("empty suite graph")
	}
	if _, err := SuiteGraph("nope", 1); err == nil {
		t.Error("unknown suite graph accepted")
	}
}

// TestRunEveryTableEntry runs every entry of the kernels table through the
// facade: each must come back validated, with its kind's field set.
func TestRunEveryTableEntry(t *testing.T) {
	g, err := SuiteGraph("hood", 16)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, e := range kernels.Table() {
		out, err := Run(e.Kind, e.Variant, g, 2)
		if err != nil {
			t.Errorf("%s/%s: %v", e.Kind, e.Variant, err)
			continue
		}
		if got := len(out.BFS.Levels) + len(out.Coloring.Colors) + len(out.Components.Labels) + len(out.State); got != n {
			t.Errorf("%s/%s: outcome covers %d vertices, want %d", e.Kind, e.Variant, got, n)
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind, variant string
		workers       int
	}{
		{"sweep", "", 2}, {"nope", "seq", 2}, {kernels.BFS, "nope", 2}, {kernels.Coloring, "", 0},
	} {
		if _, err := Run(c.kind, c.variant, g, c.workers); err == nil {
			t.Errorf("Run(%q, %q, %d workers) accepted", c.kind, c.variant, c.workers)
		}
	}
}

func TestFacadeColoringAndBFS(t *testing.T) {
	g, err := SuiteGraph("pwtk", 16)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(kernels.Coloring, "", g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Coloring.NumColors > g.MaxDegree()+1 {
		t.Errorf("parallel coloring used %d colors > Δ+1", par.Coloring.NumColors)
	}

	ref, err := Run(kernels.BFS, kernels.Seq, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(kernels.BFS, "", g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pres.BFS.NumLevels != ref.BFS.NumLevels {
		t.Errorf("parallel BFS levels %d != sequential %d", pres.BFS.NumLevels, ref.BFS.NumLevels)
	}

	sp := AchievableBFSSpeedup(ref.BFS.Widths, 124, 32)
	if sp <= 1 {
		t.Errorf("model speedup %v, want > 1 on a real profile", sp)
	}
}

func TestFacadeIrregularKernel(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(kernels.Irregular, "", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The start state is 1 + v/97: the middle vertex's neighbours average to
	// its own value, so every sweep leaves it there.
	if len(out.State) != 3 || math.Abs(out.State[1]-(1+1.0/97)) > 1e-12 {
		t.Errorf("kernel output %v, want middle = 1 + 1/97", out.State)
	}
}

func TestFacadeMachinesAndExperiment(t *testing.T) {
	exp, err := RunExperiment("table1", 16)
	if err != nil {
		t.Fatal(err)
	}
	if exp.ID != "table1" || len(exp.Rows) != 7 {
		t.Errorf("experiment %q with %d rows", exp.ID, len(exp.Rows))
	}
	if _, err := RunExperiment("fig0x", 16); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeHybridBFS(t *testing.T) {
	g, err := SuiteGraph("msdoor", 16)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(kernels.BFS, "hybrid", g, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := out.BFS
	if res.TopDownLevels+res.BottomUpLevels != res.NumLevels {
		t.Errorf("direction counts %d+%d != %d levels",
			res.TopDownLevels, res.BottomUpLevels, res.NumLevels)
	}
}
