package main

import (
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"micgraph/internal/bfs"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/xrand"
)

// graphSpec names the graph a workload's kernels run on.
type graphSpec struct {
	suite     string // suite stand-in name; "" for RMAT
	scale     int    // suite shrink factor (1 = paper size)
	rmatScale int    // log2 |V| of the RMAT graph
}

func (gs graphSpec) String() string {
	if gs.suite == "" {
		return fmt.Sprintf("rmat-%d-shuffled", gs.rmatScale)
	}
	return fmt.Sprintf("%s@%d", gs.suite, gs.scale)
}

// kernelGraph is the graph the kernels of a workload run on: the workload's
// own input for the three graph workloads, the probe graph hood at the
// suite's scale for figures (the graph the simulator's trace builders walk),
// and pwtk at the daemon's default scale for serve-mix's ladder.
func kernelGraph(workload string, smoke bool) graphSpec {
	pick := func(full, small graphSpec) graphSpec {
		if smoke {
			return small
		}
		return full
	}
	switch workload {
	case "mesh-large":
		return pick(graphSpec{suite: "msdoor", scale: 1}, graphSpec{suite: "msdoor", scale: 8})
	case "rmat-shuffled":
		return pick(graphSpec{rmatScale: 19}, graphSpec{rmatScale: 12})
	case "figures":
		return pick(graphSpec{suite: "hood", scale: figuresScale(false)}, graphSpec{suite: "hood", scale: figuresScale(true)})
	default: // mesh-small, serve-mix
		return pick(graphSpec{suite: "pwtk", scale: 4}, graphSpec{suite: "pwtk", scale: 16})
	}
}

// figuresScale is the shrink factor of the suite the figures are drawn on.
func figuresScale(smoke bool) int {
	if smoke {
		return 32
	}
	return 8
}

// genTimes is how long the stages of building a graph took, in seconds; a
// stage that did not run reads 0.
type genTimes struct{ mesh, rmat, shuffle float64 }

// The RMAT graph is the same for every seed, as the mesh stand-ins are: the
// seed draws the BFS sources (pickSources) and nothing else of a graph
// workload. A seeded generator or shuffle would change the amount of work
// from seed to seed — label propagation takes four or five rounds on
// RMAT-19 depending on both, a quarter more time for the same arcs — and
// the spread between seeds is what the benchmark is accepted on.
const (
	rmatSeed    = 1
	shuffleSeed = 2
)

// buildGraph generates the graph of gs: a mesh stand-in as the suite table
// fixes it, or the shuffled RMAT graph.
func buildGraph(gs graphSpec) (*graph.Graph, genTimes, error) {
	var gt genTimes
	if gs.suite != "" {
		g, d, err := buildMesh(gs.suite, gs.scale)
		gt.mesh = d
		return g, gt, err
	}
	t := time.Now()
	g := gen.RMAT(gs.rmatScale, 16, 0.57, 0.19, 0.19, rmatSeed)
	gt.rmat = time.Since(t).Seconds()
	t = time.Now()
	g = g.Shuffled(shuffleSeed)
	gt.shuffle = time.Since(t).Seconds()
	return g, gt, nil
}

func buildMesh(suite string, scale int) (*graph.Graph, float64, error) {
	cfg, err := gen.SuiteConfig(suite)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	g, err := gen.Mesh(gen.Scaled(cfg, scale))
	return g, time.Since(t).Seconds(), err
}

// numSources is the size of the BFS source set a graph workload rotates
// through: pass p starts from source p mod numSources.
const numSources = 4

// graphInput is a kernel graph with its seeded BFS sources and the work
// numerators of the throughput metrics.
type graphInput struct {
	spec    graphSpec
	g       *graph.Graph
	sources [numSources]int32
	reach   [numSources]int64 // arcs incident to the vertices reachable from each source
	levels  [numSources]int   // BFS level count from each source (oracle)
}

// pickSources draws the BFS sources from the seed. They are stratified: one
// per quarter of the vertex id range, jittered by up to ±|V|/128 around the
// quarter's centre. In the mesh stand-ins a vertex's id fixes its position
// along the grid and with it the depth of the BFS, so stratifying keeps the
// work of a pass the same from seed to seed while every seed still starts
// from different vertices; in a shuffled graph ids carry no position and
// the rule is an ordinary seeded draw. An isolated vertex, or one outside
// the giant component (it must reach at least half of all arcs), is
// replaced by the next vertex that qualifies.
func pickSources(in *graphInput, seed uint64) error {
	g := in.g
	n := g.NumVertices()
	rng := xrand.New(seed ^ 0x736f7572636573) // "sources"
	jitter := max(n/128, 1)
	for i := range in.sources {
		v := (2*i+1)*n/(2*numSources) + rng.Intn(2*jitter+1) - jitter
		v = min(max(v, 0), n-1)
		found := false
		for tries := 0; tries < n && !found; tries++ {
			if g.Degree(int32(v)) > 0 {
				ref := bfs.Sequential(g, int32(v))
				var arcs int64
				for u, l := range ref.Levels {
					if l != bfs.Unvisited {
						arcs += int64(g.Degree(int32(u)))
					}
				}
				if 2*arcs >= g.NumArcs() {
					in.sources[i], in.reach[i], in.levels[i] = int32(v), arcs, ref.NumLevels
					found = true
				}
			}
			v = (v + 1) % n
		}
		if !found {
			return fmt.Errorf("%s: no BFS source reaches half of the graph", in.spec)
		}
	}
	return nil
}

// hashGraph folds a graph's CSR arrays into h: FNV-1a over 32-bit words,
// which walks the 75 MB of the largest input in tens of milliseconds.
func hashGraph(h hash.Hash, g *graph.Graph) {
	const prime = 1099511628211
	x := uint64(14695981039346656037)
	for _, v := range g.AdjRaw() {
		x = (x ^ uint64(uint32(v))) * prime
	}
	for _, v := range g.Xadj() {
		x = (x ^ uint64(v)) * prime
	}
	fmt.Fprintf(h, "graph %d %d %016x\n", g.NumVertices(), g.NumArcs(), x)
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
