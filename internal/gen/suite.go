package gen

import (
	"fmt"

	"micgraph/internal/graph"
	"micgraph/internal/xrand"
)

// MeshConfig parameterises one clique-grid FEM stand-in. See the package
// comment for the construction. The zero value is not usable; start from
// the Suite table or fill every field.
type MeshConfig struct {
	Name       string
	V          int    // vertex count
	E          int64  // target undirected edge count (approximate, ±1%)
	CliqueSize int    // s; also the expected greedy color count
	GridW      int    // clique-grid width (frontier width)
	LinkRadius int    // Chebyshev radius of inter-clique links (1 for FEM-like)
	LinkExact  bool   // links only at exactly LinkRadius (long jumps), not within it
	MaxDegree  int    // Δ target, reached via hub vertices
	NumHubs    int    // number of hub vertices
	Seed       uint64 // generator seed

	// Published values from Table I of the paper, for reporting only.
	PaperColors int
	PaperLevels int
}

// Suite returns the seven Table I stand-in configurations at full scale.
// GridW values are chosen so that L = ceil(K/GridW) matches the published
// BFS level count: with radius-1 links a BFS crosses one clique row per ~2
// hops, giving ≈L levels from the middle row; pwtk's narrow 17-wide ribbon
// reproduces its 267-level outlier profile. auto's wider link radius (3)
// models its higher-connectivity tetrahedral mesh (levels ≪ grid size).
func Suite() []MeshConfig {
	return []MeshConfig{
		// Name        V       E        s  GridW R  Δ    hubs  seed  colors levels
		//
		// GridW calibration: with dense radius-1 links the BFS front crosses
		// ~1 clique row per level, so levels ≈ L/2 from the middle row and
		// GridW ≈ K/(2·levels). auto uses radius-3 links at ~0.7 edges/pair
		// (its tetrahedral mesh is higher-connectivity but sparser per
		// direction), advancing ~2 cells/level, so GridW ≈ K·2/(4·levels).
		{"auto", 448695, 3314611, 13, 134, 3, true, 37, 500, 101, 13, 58},
		{"bmw3_2", 227362, 5530634, 48, 18, 1, false, 335, 300, 102, 48, 86},
		{"hood", 220542, 4837440, 40, 14, 1, false, 76, 400, 103, 40, 116},
		{"inline_1", 503712, 18156315, 51, 16, 1, false, 842, 200, 104, 51, 183},
		{"ldoor", 952203, 20770807, 42, 58, 1, false, 76, 600, 105, 42, 169},
		{"msdoor", 415863, 9378650, 42, 29, 1, false, 76, 500, 106, 42, 99},
		{"pwtk", 217918, 5653257, 48, 6, 1, false, 179, 300, 107, 48, 267},
	}
}

// SuiteConfig returns the full-scale configuration with the given name.
func SuiteConfig(name string) (MeshConfig, error) {
	for _, c := range Suite() {
		if c.Name == name {
			return c, nil
		}
	}
	return MeshConfig{}, fmt.Errorf("gen: unknown suite graph %q", name)
}

// Scaled returns a copy of cfg shrunk by the linear factor f (f=1 returns
// cfg unchanged): |V| and |E| divide by f², grid dimensions by f, so the
// graph keeps its aspect ratio, degree structure and color count while the
// level count shrinks by ~f. Used to keep unit tests and CI fast.
func Scaled(cfg MeshConfig, f int) MeshConfig {
	if f <= 1 {
		return cfg
	}
	c := cfg
	c.V = max(cfg.V/(f*f), 4*cfg.CliqueSize)
	c.E = max(cfg.E/int64(f*f), int64(c.V)*int64(cfg.CliqueSize-1)/2)
	c.GridW = max(cfg.GridW/f, 2)
	c.NumHubs = max(cfg.NumHubs/(f*f), 1)
	if c.MaxDegree >= c.V {
		c.MaxDegree = c.V - 1
	}
	c.Name = fmt.Sprintf("%s/%d", cfg.Name, f)
	return c
}

// Mesh generates the clique-grid graph described by cfg. The result is
// connected, simple and deterministic for a given config.
func Mesh(cfg MeshConfig) (*graph.Graph, error) {
	if cfg.V <= 0 || cfg.CliqueSize <= 0 || cfg.GridW <= 0 {
		return nil, fmt.Errorf("gen: invalid mesh config %+v", cfg)
	}
	if cfg.LinkRadius <= 0 {
		return nil, fmt.Errorf("gen: mesh %q needs LinkRadius >= 1", cfg.Name)
	}
	s := cfg.CliqueSize
	numCliques := (cfg.V + s - 1) / s
	gridW := cfg.GridW
	gridL := (numCliques + gridW - 1) / gridW
	r := xrand.New(cfg.Seed)

	// cliqueBase(k) is the first vertex id of clique k; clique k has
	// cliqueSize(k) vertices (the last clique may be smaller).
	cliqueBase := func(k int) int32 { return int32(k * s) }
	cliqueSize := func(k int) int {
		if k == numCliques-1 {
			return cfg.V - k*s
		}
		return s
	}
	randomMember := func(k int) int32 {
		return cliqueBase(k) + int32(r.Intn(cliqueSize(k)))
	}

	b := graph.NewBuilder(cfg.V)

	// 1. Intra-clique edges: each clique is complete, and one entry of the
	// Builder. Edge slots are reserved for what steps 2 to 4 add.
	var cliqueEdges int64
	for k := 0; k < numCliques; k++ {
		sz := cliqueSize(k)
		b.AddClique(cliqueBase(k), sz)
		cliqueEdges += int64(sz) * int64(sz-1) / 2
	}
	b.Grow(int(max(cfg.E-cliqueEdges, 0)))

	// 2. Backbone: consecutive cliques in row-major order are joined so the
	// graph is connected regardless of how the random budget lands.
	for k := 0; k+1 < numCliques; k++ {
		b.AddEdge(randomMember(k), randomMember(k+1))
	}

	// 3. Inter-clique budget spread over grid-adjacent clique pairs within
	// Chebyshev distance LinkRadius.
	budget := cfg.E - cliqueEdges - int64(numCliques-1)
	hubBudget := int64(cfg.NumHubs) * int64(max(cfg.MaxDegree-s, 0))
	budget -= hubBudget
	if budget > 0 {
		pairs := adjacentPairs(numCliques, gridW, gridL, cfg.LinkRadius)
		if cfg.LinkExact {
			exact := pairs[:0]
			for _, p := range pairs {
				if chebyshev(p[0], p[1], gridW) == cfg.LinkRadius {
					exact = append(exact, p)
				}
			}
			pairs = exact
		}
		if len(pairs) > 0 {
			perPair := budget / int64(len(pairs))
			rem := budget % int64(len(pairs))
			for i, p := range pairs {
				edges := perPair
				if int64(i) < rem {
					edges++
				}
				for e := int64(0); e < edges; e++ {
					b.AddEdge(randomMember(p[0]), randomMember(p[1]))
				}
			}
		}
	}

	// 4. Hubs: the first vertex of evenly spaced cliques is connected to
	// random vertices in cliques within grid distance 2, raising its degree
	// to ~MaxDegree while preserving index locality. Being first in its
	// clique, a hub is colored early by First Fit and takes a low color, so
	// hubs raise Δ without inflating the color count.
	if cfg.NumHubs > 0 && cfg.MaxDegree > s {
		stride := max(numCliques/cfg.NumHubs, 1)
		for h := 0; h < cfg.NumHubs; h++ {
			k := (h * stride) % numCliques
			hub := cliqueBase(k)
			// Aim below the target by the expected degree a vertex picks up
			// from the random inter-clique budget and backbone, so the hub
			// lands on ~MaxDegree rather than overshooting.
			avgExtra := 0
			if cfg.V > 0 {
				avgExtra = int(2 * budget / int64(cfg.V))
			}
			extra := cfg.MaxDegree - (cliqueSize(k) - 1) - 2 - avgExtra
			// Enumerate distinct (clique, member) targets round-robin over the
			// nearby neighborhood so the hub reaches its degree target
			// exactly instead of losing edges to duplicate sampling. The
			// radius starts at 2 and widens when the neighborhood is too
			// small to supply `extra` distinct endpoints (scaled-down graphs).
			radius := 2
			targets := nearbyCliques(k, gridW, gridL, numCliques, radius)
			for len(targets)*s < extra && radius < gridW+gridL {
				radius++
				targets = nearbyCliques(k, gridW, gridL, numCliques, radius)
			}
			if len(targets) == 0 {
				continue
			}
			for e := 0; e < extra; e++ {
				kk := targets[e%len(targets)]
				member := (e / len(targets)) % cliqueSize(kk)
				if e/len(targets) >= cliqueSize(kk) {
					continue // tiny graph: neighborhood exhausted
				}
				b.AddEdge(hub, cliqueBase(kk)+int32(member))
			}
		}
	}

	return b.Build(), nil
}

// chebyshev returns the Chebyshev grid distance between cliques a and b.
func chebyshev(a, b, gridW int) int {
	dr := a/gridW - b/gridW
	if dr < 0 {
		dr = -dr
	}
	dc := a%gridW - b%gridW
	if dc < 0 {
		dc = -dc
	}
	if dr > dc {
		return dr
	}
	return dc
}

// adjacentPairs lists the clique-grid pairs (k1 < k2) whose cells are within
// Chebyshev distance radius on the gridW × gridL layout.
func adjacentPairs(numCliques, gridW, gridL, radius int) [][2]int {
	var pairs [][2]int
	for k := 0; k < numCliques; k++ {
		row, col := k/gridW, k%gridW
		for dr := 0; dr <= radius; dr++ {
			for dc := -radius; dc <= radius; dc++ {
				if dr == 0 && dc <= 0 {
					continue // enumerate each unordered pair once
				}
				nr, nc := row+dr, col+dc
				if nr < 0 || nr >= gridL || nc < 0 || nc >= gridW {
					continue
				}
				kk := nr*gridW + nc
				if kk < numCliques {
					pairs = append(pairs, [2]int{k, kk})
				}
			}
		}
	}
	return pairs
}

// nearbyCliques lists the cliques within Chebyshev distance radius of
// clique k (excluding k itself), in deterministic row-major order.
func nearbyCliques(k, gridW, gridL, numCliques, radius int) []int {
	row, col := k/gridW, k%gridW
	out := make([]int, 0, (2*radius+1)*(2*radius+1)-1)
	for dr := -radius; dr <= radius; dr++ {
		for dc := -radius; dc <= radius; dc++ {
			nr, nc := row+dr, col+dc
			if nr < 0 || nr >= gridL || nc < 0 || nc >= gridW {
				continue
			}
			kk := nr*gridW + nc
			if kk < numCliques && kk != k {
				out = append(out, kk)
			}
		}
	}
	return out
}

// GenerateSuite generates all seven stand-ins at the given linear scale
// factor (1 = full size). Returns them in Suite order.
func GenerateSuite(scale int) ([]*graph.Graph, []MeshConfig, error) {
	configs := Suite()
	graphs := make([]*graph.Graph, len(configs))
	for i, cfg := range configs {
		cfg = Scaled(cfg, scale)
		configs[i] = cfg
		g, err := Mesh(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("gen: %s: %w", cfg.Name, err)
		}
		graphs[i] = g
	}
	return graphs, configs, nil
}
