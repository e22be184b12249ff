package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// Same seed, same inputs; another seed, other inputs. Of a graph workload
// the seed draws the BFS sources; the graph itself is the same for every
// seed.
func TestInputsFollowSeed(t *testing.T) {
	gs := kernelGraph("rmat-shuffled", true)
	digest := func(seed uint64) (string, [numSources]int32) {
		g, _, err := buildGraph(gs)
		if err != nil {
			t.Fatal(err)
		}
		in := &graphInput{spec: gs, g: g}
		if err := pickSources(in, seed); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		hashGraph(h, g)
		return hexSum(h), in.sources
	}
	h1, s1 := digest(7)
	h1b, s1b := digest(7)
	h2, s2 := digest(8)
	if h1 != h1b || s1 != s1b {
		t.Errorf("seed 7 gave two different inputs: %s %v, then %s %v", h1, s1, h1b, s1b)
	}
	if h1 != h2 {
		t.Errorf("the graph changed with the seed: %s, then %s", h1, h2)
	}
	if s1 == s2 {
		t.Errorf("seeds 7 and 8 gave the same BFS sources %v", s1)
	}

	m := newMix(true)
	d1, d1b, d2 := specsOf(m.deck(7, 1)), specsOf(m.deck(7, 1)), specsOf(m.deck(8, 1))
	if !reflect.DeepEqual(d1, d1b) {
		t.Error("the same seed and cycle gave two different decks")
	}
	if reflect.DeepEqual(d1, d2) {
		t.Error("seeds 7 and 8 gave the same deck")
	}
	if reflect.DeepEqual(d1, specsOf(m.deck(7, 2))) {
		t.Error("two cycles of one seed gave the same deck")
	}
}

// A deck asks for the same work whatever the seed: every variant on every
// resident graph once, and the stated number of misses.
func TestDeckIsBalanced(t *testing.T) {
	for _, smoke := range []bool{true, false} {
		m := newMix(smoke)
		for _, seed := range []uint64{1, 2} {
			type cell struct{ variant, graph int }
			seen := map[cell]int{}
			misses := 0
			for _, jc := range m.deck(seed, 3) {
				if jc.hit {
					seen[cell{jc.variant, jc.graph}]++
				} else {
					misses++
				}
			}
			if len(seen) != len(servedVariants)*len(m.resident) {
				t.Errorf("smoke=%v seed %d: %d distinct hit cells, want %d", smoke, seed, len(seen), len(servedVariants)*len(m.resident))
			}
			for c, n := range seen {
				if n != 1 {
					t.Errorf("smoke=%v seed %d: cell %v drawn %d times", smoke, seed, c, n)
				}
			}
			if misses != m.misses {
				t.Errorf("smoke=%v seed %d: %d misses, want %d", smoke, seed, misses, m.misses)
			}
		}
	}
	m := newMix(false)
	if share := float64(m.misses) / float64(len(m.deck(1, 0))); share < 0.14 || share > 0.16 {
		t.Errorf("miss share %.3f, want 0.15", share)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {3000, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 50 {
			if beyond := float64(c.n) * (100 - got) / 100; beyond < 10-1e-9 {
				t.Errorf("tailPercentile(%d) = %g leaves only %.2f samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if xs[0] != 9 {
		t.Error("median sorted its argument in place")
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

// BENCHMARK.json and the code name the same workloads and metrics, with the
// same units, inside the limits of the driver's contract.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(wl, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", wl, workloads)
	}

	seen := map[string]bool{}
	compare := func(kind string, defs []metricDef, got []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(defs))
		}
		want := map[string]metricDef{}
		for _, d := range defs {
			want[d.Name] = d
		}
		for _, g := range got {
			if seen[g.Name] {
				t.Errorf("%s: name %s used twice", kind, g.Name)
			}
			seen[g.Name] = true
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s: %q (%q) breaks the contract's naming rules", kind, g.Name, g.Unit)
			}
			if w, ok := want[g.Name]; !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but the code never emits it", kind, g.Name)
			} else if w != g {
				t.Errorf("%s: %s is %+v in BENCHMARK.json, %+v in the code", kind, g.Name, g, w)
			}
			delete(want, g.Name)
		}
		for n := range want {
			t.Errorf("%s: the code emits %s but BENCHMARK.json does not list it", kind, n)
		}
	}
	var e2e, layer []metricDef
	setup := false
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	compare("end_to_end", endToEnd, e2e)
	compare("per_layer", perLayer, layer)
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(e2e) > 16 || len(layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(e2e), len(layer))
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}
}

// smokeRun runs one workload in-process on the smoke sizes.
func smokeRun(t *testing.T, cfg config) (result, report) {
	t.Helper()
	cfg.smoke, cfg.seed, cfg.outDir = true, 1, t.TempDir()
	res, rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res, rep
}

// Every workload runs end to end, passes its checks and emits exactly the
// end-to-end metrics, none of them zero.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		res, rep := smokeRun(t, config{workload: w})
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w, res.Correct, res.Attempted, res.Failed, rep.Failures)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w, d.Name, v, d.Unit)
			}
		}
		if rep.InputHash == "" {
			t.Errorf("%s: no input hash", w)
		}
	}
}

// The traced run emits exactly the per-layer metrics and writes a loadable
// trace whose spans carry their parent and the shared run id. One workload
// per code path: a graph workload, figures and serve-mix reach the ladder
// with different rungs already measured.
func TestSmokeTraced(t *testing.T) {
	for _, w := range []string{"mesh-small", "figures", "serve-mix"} {
		res, rep := smokeRun(t, config{workload: w, trace: true})
		if !res.Correct {
			t.Errorf("%s: failed %d of %d checks: %v", w, res.Failed, res.Attempted, rep.Failures)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(perLayer))
		}
		for _, name := range []string{"bfs.seq.ns_per_arc", "sched.team.loop_us.wmax", "core.fig.fig4d_ms", "serve.exec_ms", "cluster.hop_p50_ms", "mic.sim.chunks"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w, name, res.Metrics[name].Value)
			}
		}
		b, err := os.ReadFile(rep.TraceFile)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		var tf struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
				Args struct {
					ID     int    `json:"id"`
					Parent int    `json:"parent"`
					Run    string `json:"run"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatalf("%s: trace file is not JSON: %v", w, err)
		}
		spans, children := 0, 0
		for _, e := range tf.TraceEvents {
			if e.Ph != "X" {
				continue
			}
			spans++
			if e.Args.Parent > 0 {
				children++
			}
			if e.Args.ID == 0 || e.Args.Run != w+"-seed1" || e.Dur < 0 {
				t.Fatalf("%s: malformed span %+v", w, e)
			}
		}
		if spans < 50 || children < spans-1 {
			t.Errorf("%s: %d spans, %d with a parent; want one root and many children", w, spans, children)
		}
	}
}

// A wrong oracle expectation must surface as failed checks (and through
// main, a non-zero exit), in each of the three workload families.
func TestBrokenOracleFailsTheRun(t *testing.T) {
	for _, w := range []string{"mesh-small", "figures", "serve-mix"} {
		res, _ := smokeRun(t, config{workload: w, breakOracle: true})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a falsified oracle went unnoticed: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, _, err := runWorkload(config{workload: "nope", smoke: true}); err == nil {
		t.Error("an unknown workload ran")
	}
}
