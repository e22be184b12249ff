package core

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"micgraph/internal/mic"
)

// The integration tests run every experiment once on a 4x-scaled suite and
// assert the paper's qualitative findings — who wins, where curves bend —
// rather than absolute numbers (which are only meaningful at scale 1; see
// EXPERIMENTS.md for the full-scale comparison).

var (
	suiteOnce sync.Once
	testSuite *Suite
	suiteErr  error
)

func sharedSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		testSuite, suiteErr = NewSuite(4)
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return testSuite
}

// byID runs one experiment on the stock KNF and host machines.
func byID(t *testing.T, s *Suite, id string) *Experiment {
	t.Helper()
	e, err := ByID(id, s, mic.KNF(), mic.HostXeon())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	if GeoMean([]float64{1, 0}) != 0 {
		t.Error("GeoMean with zero should be 0")
	}
}

func TestThreadSweeps(t *testing.T) {
	ts := ThreadSweep()
	if ts[0] != 1 || ts[len(ts)-1] != 121 || len(ts) != 13 {
		t.Errorf("ThreadSweep = %v", ts)
	}
	hs := HostSweep()
	if len(hs) != 24 || hs[0] != 1 || hs[23] != 24 {
		t.Errorf("HostSweep = %v", hs)
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Label: "x", Threads: []int{1, 11, 21}, Values: []float64{1, 9, 7}}
	th, v := s.Peak()
	if th != 11 || v != 9 {
		t.Errorf("Peak = (%d, %v)", th, v)
	}
	if s.At(21) != 7 || s.At(99) != 0 {
		t.Error("At lookup wrong")
	}
}

func TestSuiteFindAndShuffled(t *testing.T) {
	s := sharedSuite(t)
	g, cfg, err := s.Find("pwtk")
	if err != nil || g == nil || !strings.HasPrefix(cfg.Name, "pwtk") {
		t.Fatalf("Find(pwtk) = %v, %v", cfg.Name, err)
	}
	if _, _, err := s.Find("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	sh := s.Shuffled()
	if len(sh) != len(s.Graphs) {
		t.Fatalf("Shuffled returned %d graphs", len(sh))
	}
	if sh[0].NumEdges() != s.Graphs[0].NumEdges() {
		t.Error("shuffle changed edge count")
	}
	if &sh[0] != &s.Shuffled()[0] {
		t.Log("shuffled cached")
	}
}

func TestTable1MatchesSuite(t *testing.T) {
	s := sharedSuite(t)
	exp := byID(t, s, "table1")
	if len(exp.Rows) != 7 {
		t.Fatalf("%d rows, want 7", len(exp.Rows))
	}
	for i, r := range exp.Rows {
		cfg := s.Configs[i]
		if r.V != s.Graphs[i].NumVertices() {
			t.Errorf("%s: V=%d vs graph %d", r.Name, r.V, s.Graphs[i].NumVertices())
		}
		if r.Colors < cfg.CliqueSize || r.Colors > cfg.CliqueSize+5 {
			t.Errorf("%s: colors=%d, want ≈%d (clique size)", r.Name, r.Colors, cfg.CliqueSize)
		}
		if r.Levels < 4 {
			t.Errorf("%s: only %d levels", r.Name, r.Levels)
		}
	}
}

// seriesByLabel finds a series in an experiment.
func seriesByLabel(t *testing.T, e *Experiment, label string) *Series {
	t.Helper()
	for i := range e.Series {
		if e.Series[i].Label == label {
			return &e.Series[i]
		}
	}
	t.Fatalf("%s: no series %q (have %v)", e.ID, label, func() []string {
		var ls []string
		for _, s := range e.Series {
			ls = append(ls, s.Label)
		}
		return ls
	}())
	return nil
}

func TestFig1aShapes(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "fig1a")
	dyn := seriesByLabel(t, e, "OpenMP-dynamic")
	if v := dyn.At(1); math.Abs(v-1) > 0.05 {
		t.Errorf("dynamic at 1 thread = %v, want ≈1", v)
	}
	if v := dyn.At(121); v < 25 {
		t.Errorf("dynamic at 121 threads = %v, want substantial SMT speedup", v)
	}
	if dyn.At(61) < dyn.At(11) {
		t.Error("dynamic speedup not growing with threads")
	}
}

func TestFig1bCilkVariantsClose(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "fig1b")
	a := seriesByLabel(t, e, "CilkPlus")
	b := seriesByLabel(t, e, "CilkPlus-holder")
	for i := range a.Values {
		if d := math.Abs(a.Values[i] - b.Values[i]); d > 0.06*a.Values[i]+0.1 {
			t.Errorf("variants diverge at %d threads: %v vs %v", a.Threads[i], a.Values[i], b.Values[i])
		}
	}
	// Cilk must cap well below OpenMP's ceiling: the runtime interference
	// the paper measures ("Our Cilk implementation peaks at a speedup of 32").
	_, peak := a.Peak()
	if peak > 45 {
		t.Errorf("Cilk peak %v too high; runtime overhead model missing", peak)
	}
	if peak < 15 {
		t.Errorf("Cilk peak %v too low", peak)
	}
}

func TestFig1cPartitionerOrdering(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "fig1c")
	simple := seriesByLabel(t, e, "TBB-simple")
	affinity := seriesByLabel(t, e, "TBB-affinity")
	// "The simple partitioner clearly leads to better speedup ... on 31
	// threads and more."
	for _, th := range []int{61, 81, 101, 121} {
		if simple.At(th) <= affinity.At(th) {
			t.Errorf("at %d threads simple (%v) not above affinity (%v)",
				th, simple.At(th), affinity.At(th))
		}
	}
}

func TestFig2ShuffledSuperiority(t *testing.T) {
	s := sharedSuite(t)
	shuffled := byID(t, s, "fig2")
	natural := byID(t, s, "fig1a")
	omp := seriesByLabel(t, shuffled, "OpenMP")
	dyn := seriesByLabel(t, natural, "OpenMP-dynamic")
	// Shuffled graphs stress memory; SMT hides the latency, so the speedup
	// at full thread count must far exceed the natural-order speedup
	// (paper: 153 vs 72).
	if omp.At(121) < 1.4*dyn.At(121) {
		t.Errorf("shuffled speedup %v not well above natural %v at 121 threads",
			omp.At(121), dyn.At(121))
	}
	// And must keep scaling beyond the core count.
	if omp.At(121) < 2*omp.At(31)*0.8 {
		t.Errorf("shuffled speedup stopped scaling past the core count: %v at 31, %v at 121",
			omp.At(31), omp.At(121))
	}
}

func TestFig3IterationOrdering(t *testing.T) {
	s := sharedSuite(t)

	// OpenMP and TBB: more computation -> lower speedup at high threads.
	for _, id := range []string{"fig3a", "fig3c"} {
		e := byID(t, s, id)
		one := seriesByLabel(t, e, "1 iteration(s)")
		ten := seriesByLabel(t, e, "10 iteration(s)")
		if one.At(121) <= ten.At(121) {
			t.Errorf("%s: 1-iter speedup %v not above 10-iter %v at 121 threads",
				e.ID, one.At(121), ten.At(121))
		}
	}

	// Cilk: more computation amortises the runtime overhead -> HIGHER
	// speedup with more iterations (the paper's inversion).
	e := byID(t, s, "fig3b")
	one := seriesByLabel(t, e, "1 iteration(s)")
	ten := seriesByLabel(t, e, "10 iteration(s)")
	if one.At(121) >= ten.At(121) {
		t.Errorf("fig3b: Cilk 1-iter speedup %v not below 10-iter %v at 121 threads",
			one.At(121), ten.At(121))
	}

	// At iter=10 the three models converge (within ~35% at this scale).
	a := seriesByLabel(t, byID(t, s, "fig3a"), "10 iteration(s)").At(121)
	b := ten.At(121)
	c := seriesByLabel(t, byID(t, s, "fig3c"), "10 iteration(s)").At(121)
	lo := math.Min(a, math.Min(b, c))
	hi := math.Max(a, math.Max(b, c))
	if hi > 1.6*lo {
		t.Errorf("iter=10 speedups did not converge: OpenMP %v, Cilk %v, TBB %v", a, b, c)
	}
}

func TestFig4RelaxedBeatsLocked(t *testing.T) {
	s := sharedSuite(t)
	for _, id := range []string{"fig4a", "fig4b"} {
		e := byID(t, s, id)
		relaxed := seriesByLabel(t, e, "OpenMP-Block-relaxed")
		locked := seriesByLabel(t, e, "OpenMP-Block")
		for _, th := range []int{11, 41, 81, 121} {
			if relaxed.At(th) < locked.At(th) {
				t.Errorf("%s at %d threads: relaxed %v below locked %v",
					e.ID, th, relaxed.At(th), locked.At(th))
			}
		}
	}
}

func TestFig4InlineBeatsPwtk(t *testing.T) {
	s := sharedSuite(t)
	_, pwtkPeak := seriesByLabel(t, byID(t, s, "fig4a"), "OpenMP-Block-relaxed").Peak()
	_, inlinePeak := seriesByLabel(t, byID(t, s, "fig4b"), "OpenMP-Block-relaxed").Peak()
	// "the peak speedup on the inline_1 graph is about twice the speedup
	// achieved on pwtk"
	if inlinePeak < 1.3*pwtkPeak {
		t.Errorf("inline_1 peak %v not well above pwtk peak %v", inlinePeak, pwtkPeak)
	}
}

func TestFig4cBagPerformsPoorly(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "fig4c")
	block := seriesByLabel(t, e, "OpenMP-Block-relaxed")
	bag := seriesByLabel(t, e, "CilkPlus-Bag-relaxed")
	model := seriesByLabel(t, e, "Model")
	for _, th := range []int{31, 61, 121} {
		if bag.At(th) >= block.At(th) {
			t.Errorf("at %d threads the bag (%v) outperformed the block queue (%v)",
				th, bag.At(th), block.At(th))
		}
	}
	// The model upper-bounds the implementations at scale (past the very
	// low thread counts where measurement noise is absent here).
	for _, th := range []int{61, 121} {
		if block.At(th) > model.At(th)*1.1 {
			t.Errorf("implementation beats the model at %d threads: %v > %v",
				th, block.At(th), model.At(th))
		}
	}
}

func TestFig4dHostOrderingAndOversubDip(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "fig4d")
	block := seriesByLabel(t, e, "OpenMP-Block-relaxed")
	tls := seriesByLabel(t, e, "OpenMP-TLS")
	bag := seriesByLabel(t, e, "CilkPlus-Bag-relaxed")
	// "the Bag and TLS based implementation perform significantly slower
	// than our Block queue implementation"
	for _, th := range []int{8, 16, 22} {
		if !(block.At(th) > tls.At(th) && tls.At(th) > bag.At(th)) {
			t.Errorf("at %d threads ordering Block(%v) > TLS(%v) > Bag(%v) violated",
				th, block.At(th), tls.At(th), bag.At(th))
		}
	}
	// "...except using 23 and 24 threads where a performance issue in the
	// OpenMP runtime system appears."
	if block.At(23) >= block.At(22) {
		t.Errorf("OpenMP 23-thread dip missing: %v at 22, %v at 23", block.At(22), block.At(23))
	}
}

func TestAllAndByID(t *testing.T) {
	s := sharedSuite(t)
	knf, host := mic.KNF(), mic.HostXeon()
	exps := All(s, knf, host)
	if len(exps) != 12 {
		t.Fatalf("All returned %d experiments, want 12", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID, s, knf, host)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) = %v, %v", e.ID, got, err)
		}
	}
	if _, err := ByID("fig9z", s, knf, host); err == nil || err.Error() != `core: unknown experiment "fig9z"` {
		t.Errorf("unknown id: error %v", err)
	}
}

// TestExperimentTable: the one table is what every listing reads — the three
// groups partition AllIDs in report order, with no id twice.
func TestExperimentTable(t *testing.T) {
	var grouped []string
	for _, group := range []string{GroupPaper, GroupAblation, GroupExtra} {
		grouped = append(grouped, IDs(group)...)
	}
	all := AllIDs()
	if !reflect.DeepEqual(grouped, all) {
		t.Errorf("groups list %v, AllIDs %v", grouped, all)
	}
	if len(IDs(GroupPaper)) != 12 || len(IDs(GroupAblation)) != 7 || len(all) != 21 {
		t.Errorf("table has %d paper, %d ablation, %d total ids", len(IDs(GroupPaper)), len(IDs(GroupAblation)), len(all))
	}
	seen := map[string]bool{}
	for _, id := range all {
		if seen[id] {
			t.Errorf("id %s listed twice", id)
		}
		seen[id] = true
	}
}

// TestDesignExperimentIndex: DESIGN.md §3's experiment index lists every id
// the engine runs, in report order.
func TestDesignExperimentIndex(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, _ := strings.Cut(string(doc), "\n## 3. Experiment index")
	index, _, _ = strings.Cut(index, "\n## ")
	var ids []string
	for _, row := range strings.Split(index, "\n") {
		if id, ok := strings.CutPrefix(row, "| `"); ok {
			id, _, _ = strings.Cut(id, "`")
			ids = append(ids, id)
		}
	}
	if !slices.Equal(ids, AllIDs()) {
		t.Errorf("DESIGN.md §3 lists %v, AllIDs %v", ids, AllIDs())
	}
}

func TestWriteTextAndCSV(t *testing.T) {
	s := sharedSuite(t)
	for _, e := range []*Experiment{byID(t, s, "table1"), byID(t, s, "fig1a")} {
		var txt, csv bytes.Buffer
		if err := WriteText(&txt, e); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&csv, e); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(txt.String(), e.ID) {
			t.Errorf("text output missing experiment id")
		}
		lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
		if len(lines) < 2 {
			t.Errorf("CSV output too short: %q", csv.String())
		}
		header := lines[0]
		for _, line := range lines[1:] {
			if strings.Count(line, ",") != strings.Count(header, ",") {
				t.Errorf("CSV row has wrong arity: %q vs header %q", line, header)
			}
		}
	}
}
