package bfs

import (
	"context"
	"math/bits"
	"sync/atomic"
	"time"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// The flat level loop (Scratch.flat) and its three users: the paper's
// OpenMP-TLS, which expands every level top-down with locked claims; its
// CilkPlus-Bag-relaxed, the same top-down levels with relaxed claims on
// cilk_for; and the direction-optimizing (top-down/bottom-up) BFS — the
// natural extension of the paper's layered algorithm for the wide-frontier
// levels its model identifies as the parallel bulk: when the frontier is a
// large fraction of the graph, it is cheaper to iterate over *unvisited*
// vertices asking "is any of my neighbors on the frontier?" (one hit
// suffices — the bottom-up scan breaks at the first frontier neighbor) than
// to expand every frontier edge. A bottom-up level costs a sweep of the
// whole vertex set, so the switch sizes the frontier against the whole graph
// (as GBBS does): bottom-up only while the frontier's arcs m_f are at least
// NumArcs/beta.
//
// Bottom-up is entered by a growing frontier whose level it prices as
// cheaper, from counts the loop keeps anyway (frontier sizes, m_f, the
// unexplored arcs m_u). A bottom-up level scans every arc of an unvisited
// vertex that finds no parent, and about g·m_f arcs for those that do,
// where g = |F|/|F_prev| is the frontier's growth; it beats top-down's m_f
// only when m_f·(1+g) > m_u — Beamer's test with α = 1+g (the source
// level, with no frontier before it, counts as unbounded growth). A
// scale-free graph's wide middle levels grow by factors of tens to
// thousands and go bottom-up; a mesh's shell grows by a few percent a
// level and stays top-down.
//
// Instrumented runs record one PhaseSample per level, under a direction rule
// with the direction in the phase name ("level-td" / "level-bu"), so the
// crossover is readable directly from the Recorder stream (see
// EXPERIMENTS.md).

// HybridConfig tunes the direction switch; the zero Beta selects the
// default 24. Larger is more eager.
type HybridConfig struct {
	Beta int // bottom-up only while frontier arcs >= NumArcs / Beta
}

func (c HybridConfig) beta() int64 {
	if c.Beta <= 0 {
		return 24
	}
	return int64(c.Beta)
}

// direction is the switch (see the top of the file) across the levels of one
// search: Scratch.flat and Sequential ask it once a level, and it is the one
// place the rule is written.
type direction struct {
	wideAt     int64 // frontier arcs from which a level may go bottom-up: NumArcs / beta
	unexplored int64 // arcs of the vertices not yet on a frontier, m_u
	prev       int64 // the last frontier's vertices, |F_prev|
	bottomUp   bool  // the last level's direction
}

func newDirection(numArcs int64, cfg HybridConfig) direction {
	return direction{wideAt: numArcs / cfg.beta(), unexplored: numArcs}
}

// next reports whether the level whose frontier holds frontier vertices
// with edges arcs runs bottom-up: it stays bottom-up while the frontier is
// wide, and enters it when a wide, *growing* frontier also prices it cheaper.
func (d *direction) next(frontier int, edges int64) bool {
	d.unexplored -= edges
	f := int64(frontier)
	d.bottomUp = edges >= d.wideAt && (d.bottomUp ||
		f > d.prev && productLess(d.unexplored, d.prev, edges, f+d.prev))
	d.prev = f
	return d.bottomUp
}

// productLess reports a·b < c·d for non-negative a, b, c, d. The switch
// multiplies arc counts by vertex counts, which can pass 2⁶³ on a graph
// with a billion vertices, so the products are taken in 128 bits.
func productLess(a, b, c, d int64) bool {
	hi1, lo1 := bits.Mul64(uint64(a), uint64(b))
	hi2, lo2 := bits.Mul64(uint64(c), uint64(d))
	return hi1 < hi2 || hi1 == hi2 && lo1 < lo2
}

// HybridResult extends Result with direction statistics.
type HybridResult struct {
	Result
	TopDownLevels  int
	BottomUpLevels int
}

// flatQueue is one worker's next-level queue for a flat level: the vertices
// it pushed plus the sum of their degrees, gathered in the same pass so
// neither the direction rule nor a level's telemetry rescans the frontier,
// and its claims, the pushes that took a vertex off Unvisited (all of them
// but a relaxed claim's duplicates), which the barrier sums into the level's
// width. Padded so neighbouring workers do not share a cache line.
type flatQueue struct {
	buf    []int32
	edges  int64
	claims int64
	_      [24]byte
}

// TLSTeam runs the SNAP v0.4-style layered BFS (the paper's OpenMP-TLS):
// each thread accumulates next-level vertices in a thread-local queue to
// avoid shared-queue synchronisation, the local queues are concatenated
// into a global queue at each level barrier, and a vertex is "locked"
// before insertion so it enters exactly one local queue, with the paper's
// check-before-lock improvement (firstUnvisited). It is the flat level loop
// without a direction rule: every level is top-down.
func (s *Scratch) TLSTeam(ctx context.Context, g *graph.Graph, source int32, team *sched.Team, opts sched.ForOptions) (Result, error) {
	s.loop.OnTeam(team, opts)
	res, err := s.flat(ctx, g, source, false, nil)
	return res.Result, err
}

// BagCilk runs the bag BFS on the work-stealing pool (the paper's
// CilkPlus-Bag-relaxed): relaxed, unsynchronised insertion into per-worker
// bags, merged at each level barrier and traversed by a cilk_for. A bag is
// Leiserson and Schardl's pennant tree; here it is the flat loop's
// per-worker queue, its merge the concatenation where the tree does a
// carry-add over pennant ranks, and its walk a cilk_for over the frontier
// with grain vertices to a leaf task (grain <= 0 selects DefaultBagGrain),
// the piece a bag walk hands a task.
func (s *Scratch) BagCilk(ctx context.Context, g *graph.Graph, source int32, pool *sched.Pool, grain int) (Result, error) {
	if grain <= 0 {
		grain = DefaultBagGrain
	}
	s.loop.OnCilk(pool, grain)
	res, err := s.flat(ctx, g, source, true, nil)
	return res.Result, err
}

// Hybrid runs the direction-optimizing layered BFS on team: the flat level
// loop under cfg's direction rule. The level assignment is identical to
// every other variant (validated against graph.Levels); only the per-level
// work differs.
func (s *Scratch) Hybrid(ctx context.Context, g *graph.Graph, source int32, team *sched.Team, opts sched.ForOptions, cfg HybridConfig) (HybridResult, error) {
	s.loop.OnTeam(team, opts)
	return s.flat(ctx, g, source, false, &cfg)
}

// flat is the level loop over a flat frontier array on whatever s.loop is
// bound to: per level one parallel loop whose workers append the vertices
// they claim to their own queues, concatenated into the next frontier at
// the level barrier. relaxed selects the top-down claim: an atomic swap
// after the check, under which concurrent claimers all push, or a
// compare-and-swap that admits one. dir is the direction rule; nil never
// leaves top-down, counts no directions and records phase "level". ctx
// (which may be nil) is polled wherever the runtime claims or splits work
// and between levels; on cancellation or a contained panic the partial
// traversal state is returned alongside the error, with Processed counting
// the completed levels only.
func (s *Scratch) flat(ctx context.Context, g *graph.Graph, source int32, relaxed bool, dir *HybridConfig) (HybridResult, error) {
	n := g.NumVertices()
	workers := s.loop.Workers()
	s.ensureCommon(n)
	s.ensureWorkers(workers)
	if cap(s.frontA) < n {
		s.frontA = make([]int32, 0, n)
		s.frontB = make([]int32, 0, n)
	}
	res := HybridResult{}
	if n == 0 {
		res.Result = s.finish(0)
		return res, nil
	}
	s.xadj, s.adj, s.relaxed = g.Xadj(), g.AdjRaw(), relaxed
	s.levels[source] = 0
	s.widths = append(s.widths, 1)
	if s.flatBU == nil {
		// Sweep all vertices; claim those with a frontier neighbor, breaking
		// at the first hit. Claims need no CAS: each vertex is scanned by
		// exactly one worker, so the store cannot race with another claim —
		// only with concurrent neighbor loads, which the atomic store pairs
		// with — and every push is a claim.
		s.flatBU = func(lo, hi, w int) {
			xadj, adj, lvls, lv := s.xadj, s.adj, s.levels, s.lv
			q := &s.queues[w]
			buf := q.buf
			var edges int64
			for v := lo; v < hi; v++ {
				if lvls[v] != Unvisited {
					continue
				}
				for j := xadj[v]; j < xadj[v+1]; j++ {
					if atomic.LoadInt32(&lvls[adj[j]]) == lv-1 {
						atomic.StoreInt32(&lvls[v], lv)
						buf = append(buf, int32(v))
						edges += xadj[v+1] - xadj[v]
						break
					}
				}
			}
			q.claims += int64(len(buf) - len(q.buf))
			q.buf = buf
			q.edges += edges
		}
		s.flatTD = func(lo, hi, w int) {
			xadj, adj, lvls, lv, relaxed := s.xadj, s.adj, s.levels, s.lv, s.relaxed
			q := &s.queues[w]
			buf := q.buf
			var edges, claims int64
			for i := lo; i < hi; i++ {
				v := s.cur[i]
				nb := adj[xadj[v]:xadj[v+1]]
				for j := firstUnvisited(nb, lvls); j < len(nb); j += 1 + firstUnvisited(nb[j+1:], lvls) {
					u := nb[j]
					if relaxed {
						// The bag: concurrent claimers all push, and the one
						// swap that read Unvisited counts.
						if atomic.SwapInt32(&lvls[u], lv) == Unvisited {
							claims++
						}
					} else if atomic.CompareAndSwapInt32(&lvls[u], Unvisited, lv) {
						claims++
					} else {
						continue // locked: the compare-and-swap alone decides who pushes
					}
					buf = append(buf, u)
					edges += xadj[u+1] - xadj[u]
				}
			}
			q.buf = buf
			q.edges += edges
			q.claims += claims
		}
	}

	cur := append(s.frontA[:0], source)
	next := s.frontB[:0]
	curEdges := int64(g.Degree(source))
	var rule direction
	if dir != nil {
		rule = newDirection(g.NumArcs(), *dir)
	}
	bottomUp := false
	rec := telemetry.FromContext(ctx)

	var processed int64
	var err error
	for lv := int32(1); len(cur) > 0; lv++ {
		phase := "level"
		if dir != nil {
			// The frontier's arc count was accumulated by the workers while
			// claiming, so no rescan happens here.
			bottomUp = rule.next(len(cur), curEdges)
			if bottomUp {
				res.BottomUpLevels++
				phase = "level-bu"
			} else {
				res.TopDownLevels++
				phase = "level-td"
			}
		}

		var levelStart time.Time
		if telemetry.Active(rec) {
			levelStart = telemetry.Now(rec)
		}
		for w := 0; w < workers; w++ {
			q := &s.queues[w]
			q.buf, q.edges, q.claims = q.buf[:0], 0, 0
		}
		s.lv = lv
		if bottomUp {
			err = s.loop.Run(ctx, n, s.flatBU)
		} else {
			s.cur = cur
			err = s.loop.Run(ctx, len(cur), s.flatTD)
		}
		// Level lv's width, as in block: the last level gets no entry, a
		// partial one does.
		var claims int64
		for w := 0; w < workers; w++ {
			claims += s.queues[w].claims
		}
		if claims > 0 || err != nil {
			s.widths = append(s.widths, claims)
		}
		if err != nil {
			break
		}
		processed += int64(len(cur))
		// Merge the per-worker claims into the next frontier (level
		// barrier) and roll up its edge count for the next switch.
		next = next[:0]
		var nextEdges int64
		for w := 0; w < workers; w++ {
			next = append(next, s.queues[w].buf...)
			nextEdges += s.queues[w].edges
		}
		if telemetry.Active(rec) {
			sample := levelSample(lv-1, int64(len(cur)), curEdges, int64(len(next)))
			sample.Phase = phase
			sample.Duration = telemetry.Since(rec, levelStart)
			rec.Record(sample)
		}
		cur, next, curEdges = next, cur, nextEdges
	}
	s.frontA, s.frontB = cur[:0], next[:0]
	res.Result = s.finish(processed)
	return res, err
}
