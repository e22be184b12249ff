package gen

import (
	"math"
	"testing"
	"testing/quick"

	"micgraph/internal/xrand"
)

func TestChain(t *testing.T) {
	g := Chain(10)
	if g.NumVertices() != 10 || g.NumEdges() != 9 {
		t.Fatalf("got %s", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	_, nl := g.Levels(0)
	if nl != 10 {
		t.Errorf("chain(10) has %d levels from end, want 10", nl)
	}
}

func TestComplete(t *testing.T) {
	g := Complete(7)
	if g.NumEdges() != 21 || g.MaxDegree() != 6 {
		t.Fatalf("K7: %s", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(5, 4)
	if g.NumVertices() != 20 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	// Edges: horizontal 4*4 + vertical 5*3 = 31.
	if g.NumEdges() != 31 {
		t.Errorf("E = %d, want 31", g.NumEdges())
	}
	if g.MaxDegree() != 4 {
		t.Errorf("Δ = %d, want 4", g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	_, comps := g.ConnectedComponents()
	if comps != 1 {
		t.Errorf("grid has %d components", comps)
	}
}

func TestGrid3D(t *testing.T) {
	g := Grid3D(3, 3, 3)
	if g.NumVertices() != 27 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	// Edges: 3 directions * 2*3*3 = 54.
	if g.NumEdges() != 54 {
		t.Errorf("E = %d, want 54", g.NumEdges())
	}
	if g.MaxDegree() != 6 {
		t.Errorf("Δ = %d, want 6", g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiProperties(t *testing.T) {
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%200) + 1
		m := int(mRaw % 800)
		g := ErdosRenyi(n, m, seed)
		return g.Validate() == nil && g.NumVertices() == n && g.NumEdges() <= int64(m)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(100, 300, 5)
	b := ErdosRenyi(100, 300, 5)
	if !a.Equal(b) {
		t.Error("same seed produced different graphs")
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 0.57, 0.19, 0.19, 9)
	if g.NumVertices() != 1024 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Power-law-ish: max degree should be far above the average.
	avg := float64(g.NumArcs()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 3*avg {
		t.Errorf("Δ = %d not skewed vs avg %.1f", g.MaxDegree(), avg)
	}
}

func TestRMATBadProbabilities(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a+b+c >= 1")
		}
	}()
	RMAT(4, 2, 0.5, 0.3, 0.3, 1)
}

// TestRMATThresholdsMatchFloat holds the integer quadrant decode to the
// float comparison it replaced, p = Float64() tested against a, a+b, a+b+c in
// order: on the words either side of every threshold, where an off-by-one in
// the ceiling would show, on the ends of the range, and on random words. The
// first two parameter sets are the ones the goldens and the benchmark use;
// the rest are degenerate (a negative or NaN term, a partial sum over 1).
func TestRMATThresholdsMatchFloat(t *testing.T) {
	nan := math.NaN()
	for _, p := range [][3]float64{
		{.57, .19, .19}, {.7, .1, .1},
		{0, 0, 0}, {.5, -.2, .3}, {-1, .5, .5}, {.9, .2, -.3}, {.3, nan, .1}, {1e-17, 1e-17, .5},
	} {
		a, b, c := p[0], p[1], p[2]
		th := rmatThresholds(a, b, c)
		words := []uint64{0, 1, 1<<53 - 1}
		for _, x := range th {
			words = append(words, x-1, x, x+1)
		}
		r := xrand.New(1)
		for i := 0; i < 10000; i++ {
			words = append(words, r.Uint64()>>11)
		}
		for _, x := range words {
			if x >= 1<<53 {
				continue // threshold 0 minus one, threshold 2^53 plus one
			}
			word := x<<11 | r.Uint64()&0x7ff // the low 11 bits must not matter
			pf := float64(word>>11) / (1 << 53)
			var wantU, wantV int32
			switch {
			case pf < a:
			case pf < a+b:
				wantV = 1
			case pf < a+b+c:
				wantU = 1
			default:
				wantU, wantV = 1, 1
			}
			if u, v := rmatDecode([]uint64{word}, &th); u != wantU || v != wantV {
				t.Errorf("(a,b,c)=%v word %#x: decoded (%d,%d), the float comparison says (%d,%d)", p, word, u, v, wantU, wantV)
			}
		}
	}
	// Words are read most significant bit first.
	th := rmatThresholds(.57, .19, .19)
	if u, v := rmatDecode([]uint64{th[1] << 11, 0, th[0] << 11}, &th); u != 0b100 || v != 0b001 {
		t.Errorf("three-word decode = (%03b,%03b), want (100,001)", u, v)
	}
}

func TestRMATScaleZero(t *testing.T) {
	if g := RMAT(0, 4, .57, .19, .19, 1); g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Errorf("RMAT(0, ...) = %s, want one vertex and no edge", g)
	}
}

func TestRingOfCliques(t *testing.T) {
	g := RingOfCliques(5, 4)
	if g.NumVertices() != 20 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 5 cliques of 6 edges + 5 ring edges.
	if g.NumEdges() != 35 {
		t.Errorf("E = %d, want 35", g.NumEdges())
	}
	_, comps := g.ConnectedComponents()
	if comps != 1 {
		t.Errorf("%d components, want 1", comps)
	}
}

func TestSuiteConfigLookup(t *testing.T) {
	c, err := SuiteConfig("pwtk")
	if err != nil || c.Name != "pwtk" || c.PaperLevels != 267 {
		t.Errorf("SuiteConfig(pwtk) = %+v, %v", c, err)
	}
	if _, err := SuiteConfig("nope"); err == nil {
		t.Error("unknown graph accepted")
	}
}

func TestScaled(t *testing.T) {
	cfg, _ := SuiteConfig("ldoor")
	s := Scaled(cfg, 4)
	if s.V >= cfg.V || s.GridW >= cfg.GridW {
		t.Errorf("Scaled did not shrink: %+v", s)
	}
	if s.CliqueSize != cfg.CliqueSize {
		t.Error("Scaled changed the clique size (color target)")
	}
	if same := Scaled(cfg, 1); same.V != cfg.V {
		t.Error("Scaled(1) changed the config")
	}
}

// TestMeshMatchesTableIShape verifies, on 8x-scaled stand-ins, that the
// generator controls the Table I quantities: |V|, |E| within 2%, Δ exact-ish,
// connectivity, and the elongated level structure (pwtk longest).
func TestMeshMatchesTableIShape(t *testing.T) {
	graphs, configs, err := GenerateSuite(8)
	if err != nil {
		t.Fatal(err)
	}
	levelCount := make([]int, len(graphs))
	for i, g := range graphs {
		i := i
		cfg := configs[i]
		t.Run(cfg.Name, func(t *testing.T) {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() != cfg.V {
				t.Errorf("V = %d, want %d", g.NumVertices(), cfg.V)
			}
			gotE, wantE := float64(g.NumEdges()), float64(cfg.E)
			if gotE < 0.95*wantE || gotE > 1.05*wantE {
				t.Errorf("E = %d, want %d ±5%%", g.NumEdges(), cfg.E)
			}
			d := g.MaxDegree()
			if d < cfg.CliqueSize-1 {
				t.Errorf("Δ = %d below clique degree %d", d, cfg.CliqueSize-1)
			}
			if cfg.MaxDegree < cfg.V && (d < cfg.MaxDegree*8/10 || d > cfg.MaxDegree*13/10) {
				t.Errorf("Δ = %d, want ≈%d", d, cfg.MaxDegree)
			}
			_, comps := g.ConnectedComponents()
			if comps != 1 {
				t.Errorf("%d components, want 1", comps)
			}
			_, nl := g.Levels(int32(g.NumVertices() / 2))
			levelCount[i] = nl
			if nl < 4 {
				t.Errorf("only %d BFS levels; generator lost the elongated structure", nl)
			}
		})
	}
	// Suite order: auto=0 ... pwtk=6. pwtk is the narrow 267-level outlier.
	// (Counts are zero when -run filters out a subtest; skip the check then.)
	if levelCount[0] > 0 && levelCount[6] > 0 && levelCount[6] <= levelCount[0] {
		t.Errorf("pwtk levels (%d) should exceed auto levels (%d): pwtk is the narrow outlier",
			levelCount[6], levelCount[0])
	}
}

func TestMeshDeterministic(t *testing.T) {
	cfg := Scaled(mustConfig(t, "hood"), 12)
	a, err := Mesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("Mesh not deterministic")
	}
}

func TestMeshRejectsBadConfig(t *testing.T) {
	if _, err := Mesh(MeshConfig{Name: "bad", V: 0, CliqueSize: 4, GridW: 2, LinkRadius: 1}); err == nil {
		t.Error("V=0 accepted")
	}
	if _, err := Mesh(MeshConfig{Name: "bad", V: 10, CliqueSize: 4, GridW: 2, LinkRadius: 0}); err == nil {
		t.Error("LinkRadius=0 accepted")
	}
}

func mustConfig(t *testing.T, name string) MeshConfig {
	t.Helper()
	c, err := SuiteConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAdjacentPairsSmall(t *testing.T) {
	// 2x2 grid, radius 1: every pair of the 4 cells is adjacent -> 6 pairs.
	pairs := adjacentPairs(4, 2, 2, 1)
	if len(pairs) != 6 {
		t.Errorf("pairs = %d, want 6", len(pairs))
	}
	for _, p := range pairs {
		if p[0] >= p[1] {
			t.Errorf("pair %v not ordered", p)
		}
	}
}

func BenchmarkMeshHood64(b *testing.B) {
	cfg := Scaled(Suite()[2], 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Mesh(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
