// Package gen provides deterministic synthetic graph generators.
//
// The paper evaluates on seven real-world FEM/structural matrices from the
// UF Sparse Matrix Collection and the Parasol project (Table I). Those files
// are not redistributable inside this offline reproduction, so gen builds
// synthetic stand-ins whose four structurally relevant properties are
// controlled to match the published values:
//
//   - |V| and |E| (working-set size, memory pressure),
//   - Δ, the maximum degree (load imbalance of per-vertex work),
//   - the greedy color count (FEM matrices are locally clique-like, which is
//     why their greedy color count roughly equals the average degree),
//   - the BFS level count from source |V|/2 (the x_l level-width profile
//     that drives the paper's Section III-C BFS model; pwtk's 267-level
//     narrow "ribbon" outlier is reproduced by its aspect ratio).
//
// The stand-in family is the "clique grid": |V|/s cliques of size s (s set
// to the published greedy color count) laid out on a W×L grid, adjacent
// cliques joined by a budget of random edges so that |E| matches, plus a few
// high-degree hub vertices to reach Δ. Natural vertex order is clique-major,
// giving the same strong index locality as FEM natural orderings; the
// paper's "randomly shuffled" experiment is obtained with Graph.Shuffled.
//
// The cliques are 69 % (inline_1) to 97 % (bmw3_2) of a stand-in's edges, and
// each is handed to the Builder as one graph.Builder.AddClique entry, not pair
// by pair: Build writes a member's share as the range of ids it is, and only
// the random links, the backbone and the hubs go through its buckets by source
// block, to be radix-sorted there and merged with the ranges in the one pass
// that writes each list.
// Complete and RingOfCliques say their cliques the same way.
//
// Package gen also provides classic families (paths, grids, Erdős–Rényi,
// RMAT, ring of cliques) used by unit tests and the examples.
package gen

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"micgraph/internal/graph"
	"micgraph/internal/xrand"
)

// Chain returns the path graph on n vertices: the paper's worst-case BFS
// example ("consider a graph that is a very long chain, the layered BFS
// algorithm will not be able to expose any parallelism").
func Chain(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	b.Grow(n - 1)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	b.AddClique(0, n)
	return b.Build()
}

// Grid2D returns the w×h 4-neighbor grid graph, vertex (x,y) = y*w+x.
func Grid2D(w, h int) *graph.Graph {
	b := graph.NewBuilder(w * h)
	b.Grow(2 * w * h)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return b.Build()
}

// Grid3D returns the w×h×d 6-neighbor grid graph.
func Grid3D(w, h, d int) *graph.Graph {
	b := graph.NewBuilder(w * h * d)
	b.Grow(3 * w * h * d)
	id := func(x, y, z int) int32 { return int32((z*h+y)*w + x) }
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					b.AddEdge(id(x, y, z), id(x+1, y, z))
				}
				if y+1 < h {
					b.AddEdge(id(x, y, z), id(x, y+1, z))
				}
				if z+1 < d {
					b.AddEdge(id(x, y, z), id(x, y, z+1))
				}
			}
		}
	}
	return b.Build()
}

// ErdosRenyi returns a G(n, m) random simple graph: m distinct edges are
// attempted uniformly; self loops and duplicates are discarded, so the
// result has at most m edges.
func ErdosRenyi(n int, m int, seed uint64) *graph.Graph {
	r := xrand.New(seed)
	b := graph.NewBuilder(n)
	b.AddEdges(m, func(us, vs []int32) {
		for i := range us {
			us[i] = int32(r.Intn(n))
			vs[i] = int32(r.Intn(n))
		}
	})
	return b.Build()
}

// RMAT returns a recursive-matrix power-law graph with 2^scale vertices and
// about edgeFactor*2^scale edges, using the standard (a,b,c,d) quadrant
// probabilities (Graph 500 uses a=0.57, b=c=0.19, d=0.05). The result is
// symmetrised and deduplicated, so the edge count is approximate.
//
// Edge i is decoded from words [i*scale, (i+1)*scale) of one Xoshiro stream,
// most significant bit first. GOMAXPROCS goroutines take turns at the stream:
// under one lock a goroutine claims the next block of edges and draws its
// words, then decodes them into those edges' own slots of the Builder while
// the next draws. The stream is consumed in edge order whoever draws, so the
// edge list is the same however many run.
func RMAT(scale int, edgeFactor int, a, b, c float64, seed uint64) *graph.Graph {
	if a+b+c >= 1 {
		panic(fmt.Sprintf("gen: RMAT quadrant probabilities a+b+c = %v >= 1", a+b+c))
	}
	n := 1 << scale
	r := xrand.New(seed)
	th := rmatThresholds(a, b, c)
	bld := graph.NewBuilder(n)
	bld.AddEdges(edgeFactor*n, func(us, vs []int32) {
		var mu sync.Mutex // guards r and next
		next := 0
		var wg sync.WaitGroup
		blocks := (len(us) + rmatBlock - 1) / rmatBlock
		for i := 0; i < min(runtime.GOMAXPROCS(0), blocks); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				words := make([]uint64, min(rmatBlock, len(us))*scale)
				for {
					mu.Lock()
					lo := next
					hi := min(lo+rmatBlock, len(us))
					next = hi
					r.Fill(words[:(hi-lo)*scale])
					mu.Unlock()
					if lo == hi {
						return
					}
					for e := lo; e < hi; e++ {
						i := (e - lo) * scale
						us[e], vs[e] = rmatDecode(words[i:i+scale], &th)
					}
				}
			}()
		}
		wg.Wait()
	})
	return bld.Build()
}

// rmatBlock is how many edges a goroutine draws and decodes at a time: few
// enough turns at the lock (512 for RMAT-19) that waiting for it costs nothing.
const rmatBlock = 1 << 14

// rmatThresholds turns the cumulative quadrant probabilities a, a+b, a+b+c
// into integers: a word x yields p = (x>>11)·2⁻⁵³ (xrand's Float64), x>>11 is
// an integer below 2⁵³ and scaling by 2⁵³ is exact, so p < t exactly when
// x>>11 < ceil(t·2⁵³). Clamping to [0, 1] and making them non-decreasing is
// what testing p < a, else p < a+b, else p < a+b+c in that order does.
func rmatThresholds(a, b, c float64) (th [3]uint64) {
	for i, t := range [3]float64{a, a + b, a + b + c} {
		if t > 0 {
			th[i] = uint64(math.Ceil(min(t, 1) * (1 << 53)))
		}
		if i > 0 {
			th[i] = max(th[i], th[i-1])
		}
	}
	return th
}

// rmatDecode reads one edge from its words, a quadrant a word and no branch:
// ge is 1 once x has reached a threshold (the subtraction wraps into the sign
// bit); the row bit is set from a+b on, the column bit in [a, a+b) and from a+b+c.
func rmatDecode(words []uint64, th *[3]uint64) (u, v int32) {
	for _, x := range words {
		x >>= 11
		geA, geAB, geABC := (th[0]-1-x)>>63, (th[1]-1-x)>>63, (th[2]-1-x)>>63
		u = u<<1 | int32(geAB)
		v = v<<1 | int32(geA^geAB^geABC)
	}
	return u, v
}

// RingOfCliques returns k cliques of size s, with clique i joined to clique
// (i+1) mod k by a single edge. Useful as a coloring stress test with known
// chromatic number s.
func RingOfCliques(k, s int) *graph.Graph {
	n := k * s
	b := graph.NewBuilder(n)
	b.Grow(k)
	for c := 0; c < k; c++ {
		base := int32(c * s)
		b.AddClique(base, s)
		if k > 1 {
			next := int32(((c + 1) % k) * s)
			b.AddEdge(base, next)
		}
	}
	return b.Build()
}
