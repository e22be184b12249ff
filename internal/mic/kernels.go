package mic

import (
	"math"

	"micgraph/internal/graph"
)

// Trace builders: convert one kernel execution on one graph into the
// phase-structured cost profile the simulator plays. Costs use the target
// machine's building-block constants; structure (level widths, conflict
// rounds, per-vertex degrees) comes from the real graph.

// Ordering describes the vertex-id locality of the graph being traced,
// selecting the expected miss rate per neighbor access (§V-B: natural FEM
// ordering vs random shuffle).
type Ordering int

const (
	// NaturalOrder: the generator's clique-major ordering (FEM-like
	// locality; neighbor accesses mostly hit the cache).
	NaturalOrder Ordering = iota
	// ShuffledOrder: random vertex ids; nearly every access misses.
	ShuffledOrder
)

func (o Ordering) String() string {
	if o == ShuffledOrder {
		return "shuffled"
	}
	return "natural"
}

// MissPerEdge is the expected miss rate per neighbor access under ordering o.
func (m *Machine) MissPerEdge(o Ordering) float64 {
	if o == ShuffledOrder {
		return m.MissPerEdgeShuffle
	}
	return m.MissPerEdgeNatural
}

// CacheWindow is the number of consecutive vertex ids whose data
// comfortably fits in a core's share of the cache hierarchy; neighbor
// accesses within the window are modeled as hits.
const CacheWindow = 32768

// EffectiveMissPerEdge estimates the per-neighbor-access miss rate of g
// under its *current* vertex numbering from its bandwidth: orderings whose
// neighbors stay within CacheWindow behave like the natural FEM order,
// and the rate rises log-linearly to the fully shuffled rate as the
// bandwidth approaches |V|. This lets the simulator score arbitrary
// reorderings (RCM, BFS order) between the paper's two extremes.
func (m *Machine) EffectiveMissPerEdge(g *graph.Graph) float64 {
	n := float64(g.NumVertices())
	bw := float64(g.Bandwidth())
	if bw <= CacheWindow || n <= CacheWindow {
		return m.MissPerEdgeNatural
	}
	frac := math.Log(bw/CacheWindow) / math.Log(n/CacheWindow)
	if frac > 1 {
		frac = 1
	}
	return m.MissPerEdgeNatural + (m.MissPerEdgeShuffle-m.MissPerEdgeNatural)*frac
}

// vertexScanWork returns the cost of scanning v's adjacency once: issue for
// the loop, stalls for the neighbor-array and color/level/state gathers.
func vertexScanWork(m *Machine, g *graph.Graph, v int32, miss float64) Work {
	d := float64(g.Degree(v))
	return Work{
		Issue: m.IssuePerItem + m.IssuePerEdge*d,
		Stall: (0.15 + miss*d) * m.StallPerLine,
	}
}

// ConflictRate is the fraction of vertices expected to need recoloring per
// speculative round when more than one thread runs; it scales with how much
// of the graph is processed concurrently. Measured rates in the paper's
// regime are a fraction of a percent of |V|.
const ConflictRate = 0.004

// ColoringTrace builds the trace of the iterative parallel coloring
// (Algorithms 2–4) on g for a run with t threads: per round, a tentative
// coloring phase and a conflict-detection phase over the current Visit set.
// Conflict counts shrink geometrically; the expected count depends on t
// (one thread ⇒ no conflicts), which is why the builder takes t. The real
// kernel (coloring.Scratch) deliberately runs one publish-then-verify phase
// per round instead; the simulator keeps the paper's two because it models
// the published algorithm and the golden figures are computed from it
// (DESIGN.md §2).
func ColoringTrace(m *Machine, g *graph.Graph, o Ordering, t int) *Trace {
	return ColoringTraceMiss(m, g, m.MissPerEdge(o), t)
}

// ColoringTraceMiss is ColoringTrace with an explicit per-edge miss rate,
// for scoring arbitrary vertex orderings (see EffectiveMissPerEdge).
func ColoringTraceMiss(m *Machine, g *graph.Graph, miss float64, t int) *Trace {
	return ColoringTraceSweep(m, g, miss, []int{t})[0]
}

// ColoringTraceSweep builds the ColoringTraceMiss trace of every thread
// count of a sweep, in order. Round one visits every vertex whatever t is —
// only the conflict rounds after it depend on t, and they are a fraction of
// a percent of its size — so its two phases, items and prefix sums, are built
// once and shared by all the returned traces: a sweep holds one copy of the
// graph-sized arrays, not one per thread count.
func ColoringTraceSweep(m *Machine, g *graph.Graph, miss float64, threads []int) []*Trace {
	n := g.NumVertices()
	var roundOne [2]Phase
	if n > 0 {
		roundOne = coloringRound(m, g, miss, n, 0)
		for i := range roundOne {
			roundOne[i].prefix = prefixSums(roundOne[i].Items)
		}
	}
	out := make([]*Trace, len(threads))
	for i, t := range threads {
		tr := &Trace{Name: "coloring"}
		out[i] = tr
		visitSize := n
		offset := 0
		for round := 0; visitSize > 0; round++ {
			phases := roundOne
			if round > 0 {
				phases = coloringRound(m, g, miss, visitSize, offset)
			}
			tr.Phases = append(tr.Phases, phases[:]...)
			if t <= 1 {
				break // sequential speculation never conflicts
			}
			next := int(float64(visitSize) * ConflictRate * (1 - 1/float64(t)))
			if next >= visitSize {
				next = visitSize - 1
			}
			visitSize = next
			offset += 131 // decorrelate successive rounds' representatives
		}
		tr.prepare.Do(tr.buildPrefixes) // the conflict rounds' sums; round one came with its own
	}
	return out
}

// coloringRound builds one round's tentative-coloring and conflict-detection
// phases over a Visit set of visitSize vertices.
func coloringRound(m *Machine, g *graph.Graph, miss float64, visitSize, offset int) [2]Phase {
	n := g.NumVertices()
	tentative := make([]Work, visitSize)
	detect := make([]Work, visitSize)
	stride := n / visitSize
	for i := 0; i < visitSize; i++ {
		// Visit sets beyond round one are spread across the graph; pick
		// representative vertices by striding so degree structure
		// (hubs!) is preserved.
		v := int32((offset + i*stride) % n)
		w := vertexScanWork(m, g, v, miss)
		// Tentative: scan neighbors, mark forbidden, first-fit scan,
		// store the color.
		tent := w
		tent.Issue += 8 // first-fit scan + color store
		tentative[i] = tent
		// Detection: scan neighbors comparing colors; conflicts append
		// with an atomic fetch-and-add.
		det := w
		det.Atomics = ConflictRate // amortised conflict-append
		detect[i] = det
	}
	return [2]Phase{
		{Name: "tentative", Items: tentative},
		{Name: "detect", Items: detect, Seq: 40},
	}
}

// FPLatency is the latency in cycles of a dependent floating-point add on
// the simulated in-order core; only 1 cycle of it occupies the FP unit
// (pipelined), the rest is exposed stall that SMT can hide. The irregular
// kernel's neighbor sum is a serial dependency chain, which is exactly why
// the paper sees SMT double its throughput even at high arithmetic
// intensity.
const FPLatency = 4

// IrregularTrace builds the trace of the irregular-computation
// microbenchmark (Algorithm 5) with the given iteration count. Only the
// first sweep misses on neighbor state (later sweeps reuse the lines), so
// iter scales compute but not memory traffic — the paper's
// computation-to-communication knob.
func IrregularTrace(m *Machine, g *graph.Graph, o Ordering, iter int) *Trace {
	n := g.NumVertices()
	items := make([]Work, n)
	fi := float64(iter)
	miss := m.MissPerEdge(o)
	for v := 0; v < n; v++ {
		d := float64(g.Degree(int32(v)))
		ops := fi * (d + 2) // adds along the chain + the final scale
		items[v] = Work{
			Issue: fi * (m.IssuePerItem + m.IssuePerEdge*d),
			FP:    ops * m.FPPerOp,
			Stall: (0.15+miss*d)*m.StallPerLine + ops*(FPLatency-1),
		}
	}
	return &Trace{
		Name:   "irregular",
		Phases: []Phase{{Name: "update", Items: items, prefix: prefixSums(items)}},
	}
}

// BagGrain is the pennant-node capacity (the Leiserson–Schardl grainsize)
// used for both the real bag and its simulated traversal chunking.
const BagGrain = 128

// BFSVariant selects the next-level data structure being traced.
type BFSVariant int

const (
	// BFSBlock: block-accessed queue, CAS-claimed (exactly-once) insertion.
	BFSBlock BFSVariant = iota
	// BFSBlockRelaxed: block-accessed queue, unsynchronised claims.
	BFSBlockRelaxed
	// BFSTLS: SNAP-style thread-local queues, locked insertion, sequential
	// per-level merge.
	BFSTLS
	// BFSBag: Leiserson–Schardl pennant bag, relaxed insertion, pointer-
	// heavy traversal and per-level bag merges.
	BFSBag
	// BFSHybrid: direction-optimizing traversal — narrow levels expand
	// top-down like BFSBlockRelaxed, wide middle levels flip to a
	// bottom-up parent search over the unvisited vertices (Beamer-style
	// α/β switching, mirroring the real kernel in internal/bfs).
	BFSHybrid
)

// Direction-switch thresholds of the simulated hybrid traversal — the
// published Beamer rule: flip to bottom-up when the frontier's out-edges
// exceed 1/α of the unexplored edges, flip back when the frontier shrinks
// under |V|/β vertices. The real kernel (bfs.Hybrid) deliberately no longer
// decides this way: it sizes the frontier against the whole graph's arcs,
// and prices each bottom-up level with α = 1 + the frontier's growth. The
// simulator keeps the published rule because it models the cited
// algorithm and abl-direction and the golden figures are computed from it;
// see DESIGN.md §2.
const (
	HybridAlpha = 14
	HybridBeta  = 24
)

// String names the variant as in Figure 4's legends (runtime prefix is
// added by the experiment configuration).
func (v BFSVariant) String() string {
	switch v {
	case BFSBlock:
		return "Block"
	case BFSBlockRelaxed:
		return "Block-relaxed"
	case BFSTLS:
		return "TLS"
	case BFSBag:
		return "Bag-relaxed"
	case BFSHybrid:
		return "Hybrid"
	}
	return "BFS?"
}

// BFSLevels is the level structure of one (graph, source) pair: everything a
// BFS trace needs that depends on neither the machine nor the variant, 12
// bytes a vertex. It is computed exactly (one sequential BFS and one walk over
// the arcs), never modified afterwards, and shared by every trace built from
// it, by Table I and by the §III-C model curve.
type BFSLevels struct {
	Level  []int32   // BFS level per vertex, -1 where unreached
	Order  [][]int32 // Order[l] is level l in ascending id; one backing array
	Claims []int32   // children per vertex, each attributed to its minimum-id parent (the canonical claim winner)
}

// NewBFSLevels computes the level structure of g from source.
func NewBFSLevels(g *graph.Graph, source int32) *BFSLevels {
	levels, numLevels := g.Levels(source)
	ls := &BFSLevels{Level: levels, Order: levelBuckets(levels, numLevels), Claims: make([]int32, len(levels))}
	for v, lv := range levels {
		if lv <= 0 {
			continue
		}
		parent := int32(-1)
		for _, w := range g.Adj(int32(v)) {
			if levels[w] == lv-1 && (parent == -1 || w < parent) {
				parent = w
			}
		}
		if parent >= 0 {
			ls.Claims[parent]++
		}
	}
	return ls
}

// Widths returns the level-width profile, the x_l of the §III-C model.
func (ls *BFSLevels) Widths() []int64 {
	widths := make([]int64, len(ls.Order))
	for l, vs := range ls.Order {
		widths[l] = int64(len(vs))
	}
	return widths
}

// BFSTrace builds the per-level trace of the layered BFS from source: the
// level structure, then BFSTraceFrom. A caller with several traces to build on
// one (graph, source) computes the structure once and calls that.
func BFSTrace(m *Machine, g *graph.Graph, source int32, o Ordering, variant BFSVariant, blockSize int) *Trace {
	return BFSTraceFrom(m, g, NewBFSLevels(g, source), o, variant, blockSize)
}

// BFSTraceFrom builds the trace from a level structure of g. Each level
// becomes one phase whose items are the level's vertices in natural order.
// Claims (successful next-level insertions) are attributed to each vertex's
// children count, costed per variant. The trace comes with its prefix sums.
func BFSTraceFrom(m *Machine, g *graph.Graph, ls *BFSLevels, o Ordering, variant BFSVariant, blockSize int) *Trace {
	if blockSize <= 0 {
		blockSize = 32
	}
	tr := &Trace{Name: "bfs-" + variant.String()}
	if variant == BFSHybrid {
		hybridPhases(m, g, o, ls, tr)
		tr.prepare.Do(tr.buildPrefixes)
		return tr
	}
	miss := m.MissPerEdge(o)
	for _, level := range ls.Order {
		items := make([]Work, len(level))
		var seq float64
		var levelClaims float64
		for i, v := range level {
			w := vertexScanWork(m, g, v, miss)
			cl := float64(ls.Claims[v])
			levelClaims += cl
			switch variant {
			case BFSBlock:
				// CAS per claimed child + block reservations; failed CAS
				// races are folded into the claim cost.
				w.Atomics += cl + cl/float64(blockSize)
				w.Issue += 3 * cl
			case BFSBlockRelaxed:
				// Plain check+store; only block reservations are atomic.
				w.Atomics += cl / float64(blockSize)
				w.Issue += 2 * cl
			case BFSTLS:
				// Check-before-lock, then CAS claim, push to local queue.
				w.Atomics += cl
				w.Issue += 3 * cl
			case BFSBag:
				// Hopper append per claim, pennant-node allocation per
				// grain, pointer-chasing misses while walking the tree.
				w.Atomics += cl / 64
				w.Issue += 6 + 4*cl
				w.Stall += (2.0 / 64) * m.StallPerLine * (1 + cl)
			}
			items[i] = w
		}
		switch variant {
		case BFSTLS:
			// Sequential merge of thread-local queues into the global one.
			seq += 1.5 * levelClaims
		case BFSBag:
			// Per-level bag merge: logarithmic pennant unions per worker
			// plus allocator churn.
			seq += 600 + 0.2*levelClaims
		}
		tr.Phases = append(tr.Phases, Phase{Name: "level", Items: items, Seq: seq})
	}
	tr.prepare.Do(tr.buildPrefixes)
	return tr
}

// levelBuckets groups the reached vertices by BFS level, each level in
// ascending id order, in one backing array.
func levelBuckets(levels []int32, numLevels int) [][]int32 {
	start := make([]int, numLevels+1)
	for _, l := range levels {
		if l >= 0 {
			start[l+1]++
		}
	}
	for l := 0; l < numLevels; l++ {
		start[l+1] += start[l]
	}
	flat := make([]int32, start[numLevels])
	order := make([][]int32, numLevels)
	for l := range order {
		order[l] = flat[start[l]:start[l]:start[l+1]]
	}
	for v, l := range levels {
		if l >= 0 {
			order[l] = append(order[l], int32(v))
		}
	}
	return order
}

// hybridPhases builds the per-level phases of the direction-optimizing
// traversal. The direction decision is the published α/β rule (see
// HybridAlpha), not a replay of the real kernel's (DESIGN.md §2): a
// top-down level costs like BFSBlockRelaxed over the frontier; a bottom-up
// level sweeps every still-unvisited vertex, scanning its adjacency only
// until a parent on the current frontier is found (the early break that
// makes bottom-up win on wide levels), with one atomic level store per
// discovered vertex. Phase names match the real kernel's telemetry
// ("level-td" / "level-bu"), so instrumented simulator output and Recorder
// output line up level by level.
func hybridPhases(m *Machine, g *graph.Graph, o Ordering, ls *BFSLevels, tr *Trace) {
	n := g.NumVertices()
	miss := m.MissPerEdge(o)
	levels, order, numLevels := ls.Level, ls.Order, len(ls.Order)
	var totalDeg float64
	for v := 0; v < n; v++ {
		totalDeg += float64(g.Degree(int32(v)))
	}

	bottomUp := false
	exploredDeg := 0.0
	unvisited := n // vertices of levels > l, plus the unreachable
	for l := 0; l < numLevels; l++ {
		frontier := order[l]
		unvisited -= len(frontier)
		var frontierDeg float64
		for _, v := range frontier {
			frontierDeg += float64(g.Degree(v))
		}
		exploredDeg += frontierDeg
		unexploredDeg := totalDeg - exploredDeg
		if !bottomUp && frontierDeg > unexploredDeg/HybridAlpha {
			bottomUp = true
		} else if bottomUp && len(frontier) < n/HybridBeta {
			bottomUp = false
		}

		if !bottomUp {
			// Top-down: frontier scan with relaxed claims (BFSBlockRelaxed
			// costing, flat-array writer instead of block reservations).
			items := make([]Work, len(frontier))
			for i, v := range frontier {
				w := vertexScanWork(m, g, v, miss)
				var cl float64
				for _, u := range g.Adj(v) {
					if levels[u] == int32(l)+1 {
						cl++
					}
				}
				w.Issue += 2 * cl
				items[i] = w
			}
			tr.Phases = append(tr.Phases, Phase{Name: "level-td", Items: items})
			continue
		}

		// Bottom-up: sweep the unvisited vertices, scanning each adjacency
		// only until a level-l parent turns up.
		items := make([]Work, 0, unvisited)
		for v := 0; v < n; v++ {
			lv := levels[v]
			if lv >= 0 && lv <= int32(l) {
				continue
			}
			scanned := 0.0
			found := false
			for _, u := range g.Adj(int32(v)) {
				scanned++
				if levels[u] == int32(l) {
					found = true
					break
				}
			}
			w := Work{
				Issue: m.IssuePerItem + m.IssuePerEdge*scanned,
				Stall: (0.15 + miss*scanned) * m.StallPerLine,
			}
			if found {
				w.Atomics++
				w.Issue += 2
			}
			items = append(items, w)
		}
		tr.Phases = append(tr.Phases, Phase{Name: "level-bu", Items: items})
	}
}
