package bfs

import (
	"context"
	"sync/atomic"
	"time"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// Direction-optimizing (top-down/bottom-up) BFS — the natural extension of
// the paper's layered algorithm for the wide-frontier levels its model
// identifies as the parallel bulk: when the frontier is a large fraction of
// the graph, it is cheaper to iterate over *unvisited* vertices asking "is
// any of my neighbors on the frontier?" (one hit suffices — the bottom-up
// scan breaks at the first frontier neighbor) than to expand every
// frontier edge. A bottom-up level costs a sweep of the whole vertex set,
// so the switch sizes the frontier against the whole graph (as GBBS does):
// bottom-up only while the frontier's arcs are at least NumArcs/beta, and
// entered when, on top of that, a growing frontier's arcs exceed the
// unexplored arcs divided by alpha (Beamer's test). High-diameter meshes
// never have so wide a frontier and stay top-down throughout.
//
// Instrumented runs record one PhaseSample per level with the direction in
// the phase name ("level-td" / "level-bu"), so the crossover is readable
// directly from the Recorder stream (see EXPERIMENTS.md).

// HybridConfig tunes the direction switch; zero values select the
// published defaults (alpha 14, beta 24). Larger is more eager for both.
type HybridConfig struct {
	Alpha int // enter bottom-up when frontier arcs > unexplored arcs / Alpha
	Beta  int // bottom-up only while frontier arcs >= NumArcs / Beta
}

func (c HybridConfig) alpha() int64 {
	if c.Alpha <= 0 {
		return 14
	}
	return int64(c.Alpha)
}

func (c HybridConfig) beta() int64 {
	if c.Beta <= 0 {
		return 24
	}
	return int64(c.Beta)
}

// HybridResult extends Result with direction statistics.
type HybridResult struct {
	Result
	TopDownLevels  int
	BottomUpLevels int
}

// hybridLocal is one worker's claim accumulation for a hybrid level: the
// claimed vertices plus the sum of their degrees, gathered in the same
// pass so the direction heuristic never rescans the frontier.
type hybridLocal struct {
	buf   []int32
	edges int64
	_     [32]byte
}

// Hybrid runs the direction-optimizing layered BFS on team using the
// scratch's pooled state. The level assignment is identical to every other
// variant (validated against the sequential reference); only the per-level
// work differs. ctx (which may be nil) is polled at chunk-claim boundaries
// and between levels; on cancellation or a contained panic the partial
// traversal state is returned alongside the error.
func (s *Scratch) Hybrid(ctx context.Context, g *graph.Graph, source int32, team *sched.Team, opts sched.ForOptions, cfg HybridConfig) (HybridResult, error) {
	n := g.NumVertices()
	workers := team.Workers()
	opts = opts.WithSerialCutoff(workers)
	s.ensureCommon(n)
	s.ensureWorkers(workers)
	s.ensureFlat(n)
	if len(s.hlocals) < workers {
		s.hlocals = make([]hybridLocal, workers)
	}
	res := HybridResult{}
	if n == 0 {
		res.Result = s.finish(0, 0)
		return res, nil
	}
	levels := s.levels
	xadj, adj := g.Xadj(), g.AdjRaw()
	s.xadj, s.adj = xadj, adj
	levels[source] = 0
	if s.hybridBU == nil {
		// Sweep all vertices; claim those with a frontier neighbor, breaking
		// at the first hit. Claims need no CAS: each vertex is scanned by
		// exactly one worker, so the store cannot race with another claim —
		// only with concurrent neighbor loads, which the atomic store pairs
		// with.
		s.hybridBU = func(lo, hi, w int) {
			xadj, adj, lvls, lv := s.xadj, s.adj, s.levels, s.lv
			local := &s.hlocals[w]
			buf := local.buf
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
			local.buf = buf
			local.edges += edges
		}
		s.hybridTD = func(lo, hi, w int) {
			xadj, adj, lvls, lv := s.xadj, s.adj, s.levels, s.lv
			local := &s.hlocals[w]
			buf := local.buf
			var edges int64
			for i := lo; i < hi; i++ {
				v := s.cur[i]
				for j := xadj[v]; j < xadj[v+1]; j++ {
					u := adj[j]
					if claimLocked(lvls, u, lv) {
						buf = append(buf, u)
						edges += xadj[u+1] - xadj[u]
					}
				}
			}
			local.buf = buf
			local.edges += edges
		}
	}

	cur := append(s.frontA[:0], source)
	next := s.frontB[:0]
	curEdges := int64(g.Degree(source))
	numArcs := g.NumArcs()
	unexplored := numArcs
	bottomUp := false
	prevFrontier := 0
	rec := telemetry.FromContext(ctx)

	var processed int64
	maxLevel := int32(0)
	for lv := int32(1); len(cur) > 0; lv++ {
		maxLevel = lv - 1
		processed += int64(len(cur))

		// The switch (see the top of the file): stay bottom-up while the
		// frontier is wide, enter it when a wide, *growing* frontier also
		// passes Beamer's test. The frontier's arc count was accumulated
		// by the workers while claiming, so no rescan happens here.
		frontierEdges := curEdges
		unexplored -= frontierEdges
		growing := len(cur) > prevFrontier
		prevFrontier = len(cur)
		wide := frontierEdges >= numArcs/cfg.beta()
		bottomUp = wide && (bottomUp || growing && frontierEdges > unexplored/cfg.alpha())

		var levelStart time.Time
		if telemetry.Active(rec) {
			levelStart = telemetry.Now(rec)
		}
		for w := 0; w < workers; w++ {
			s.hlocals[w].buf = s.hlocals[w].buf[:0]
			s.hlocals[w].edges = 0
		}
		var err error
		s.lv = lv
		if bottomUp {
			res.BottomUpLevels++
			err = team.ForCtx(ctx, n, opts, s.hybridBU)
		} else {
			res.TopDownLevels++
			s.cur = cur
			err = team.ForCtx(ctx, len(cur), opts, s.hybridTD)
		}
		if err != nil {
			// Partial level: vertices may already be claimed at level lv.
			s.frontA, s.frontB = cur[:0], next[:0]
			hres := s.finish(processed, lv)
			hres.Duplicates = 0
			res.Result = hres
			return res, err
		}
		// Merge the per-worker claims into the next frontier (level
		// barrier) and roll up its edge count for the next switch.
		next = next[:0]
		curEdges = 0
		for w := 0; w < workers; w++ {
			next = append(next, s.hlocals[w].buf...)
			curEdges += s.hlocals[w].edges
		}
		if telemetry.Active(rec) {
			sample := levelSample(lv-1, int64(len(cur)), frontierEdges, int64(len(next)))
			if bottomUp {
				sample.Phase = "level-bu"
			} else {
				sample.Phase = "level-td"
			}
			sample.Duration = telemetry.Since(rec, levelStart)
			rec.Record(sample)
		}
		cur, next = next, cur
	}
	s.frontA, s.frontB = cur[:0], next[:0]
	hres := s.finish(processed, maxLevel)
	hres.Duplicates = 0 // locked/exclusive claims: no duplicates possible
	res.Result = hres
	return res, nil
}
