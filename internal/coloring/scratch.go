package coloring

import (
	"context"
	"sync/atomic"
	"time"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// Scratch owns every reusable buffer of the parallel coloring variants:
// the color array, the per-worker forbidden-color arrays, the
// double-buffered visit/conflict arrays, and the per-worker color maxima.
// A run through a Scratch allocates nothing on its hot path in steady
// state (pinned by the alloc-regression tests); the first run on a new
// graph shape grows the buffers once.
//
// A Scratch is single-run: one coloring at a time. The returned Result
// aliases scratch-owned memory (Colors, Conflicts), valid until the next
// run on the same Scratch; callers that run once write
// NewScratch().ColorTeam(ctx, ...).
//
// Every method polls ctx (which may be nil) where its runtime claims work
// — chunk claims, task and range splits — and between rounds; on
// cancellation or a contained panic it returns the partial coloring
// alongside the error.
type Scratch struct {
	colors         []int32
	fcs            []localFC
	fcLen          int
	visitA, visitB []int32
	locals         []paddedMax
	conflicts      []int

	// Per-round state read by the resident loop bodies below, so that
	// steady-state rounds dispatch with zero closure allocations: vs is the
	// round's visit set, nextBuf the conflict target, count the shared
	// fetch-and-add cursor into it.
	xadj    []int64
	adjr    []int32
	vs      []int32
	nextBuf []int32
	count   atomic.Int64

	tent func(lo, hi, w int)
	conf func(lo, hi, w int)

	// loop is the parallel-for construct carrying both loops of a round;
	// the three entry points differ only in how they bind it.
	loop sched.Loop
}

// ensureBodies lazily creates the resident loop bodies (they capture only
// s, so one set serves every run).
func (s *Scratch) ensureBodies() {
	if s.tent != nil {
		return
	}
	s.tent = func(lo, hi, w int) {
		fc := s.fcs[w]
		localMax := s.locals[w].v
		for i := lo; i < hi; i++ {
			if c := tentativeRaw(s.xadj, s.adjr, s.colors, fc, s.vs[i]); c > localMax {
				localMax = c
			}
		}
		s.locals[w].v = localMax
	}
	s.conf = func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			if v := s.vs[i]; conflictRaw(s.xadj, s.adjr, s.colors, v) {
				appendConflict(s.nextBuf, &s.count, v)
			}
		}
	}
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// paddedMax keeps per-worker color maxima off each other's cache lines.
type paddedMax struct {
	v int32
	_ [60]byte
}

// ensure sizes and resets every buffer for a run over g with the given
// worker count. Forbidden-color arrays are reset to the fresh state, so a
// recycled Scratch colors exactly like a new one.
func (s *Scratch) ensure(g *graph.Graph, workers int) {
	n := g.NumVertices()
	if cap(s.colors) < n {
		s.colors = make([]int32, n)
		s.visitA = make([]int32, n)
		s.visitB = make([]int32, n)
	}
	s.colors = s.colors[:n]
	s.visitA = s.visitA[:n]
	s.visitB = s.visitB[:n]
	for i := range s.colors {
		s.colors[i] = 0
		s.visitA[i] = int32(i)
	}
	fcLen := g.MaxDegree() + 2
	if len(s.fcs) < workers || s.fcLen < fcLen {
		s.fcs = make([]localFC, workers)
		for i := range s.fcs {
			s.fcs[i] = make(localFC, fcLen)
		}
		s.fcLen = fcLen
	}
	for i := range s.fcs {
		fc := s.fcs[i]
		for j := range fc {
			fc[j] = -1
		}
	}
	if len(s.locals) < workers {
		s.locals = make([]paddedMax, workers)
	}
	s.conflicts = s.conflicts[:0]
}

// tentativeRaw speculatively colors v over the raw CSR arrays: gather
// neighbor colors (atomically, they may be written concurrently), then
// First Fit. Returns the color.
func tentativeRaw(xadj []int64, adj, colors []int32, fc localFC, v int32) int32 {
	for j := xadj[v]; j < xadj[v+1]; j++ {
		if c := atomic.LoadInt32(&colors[adj[j]]); c > 0 {
			fc[c] = v
		}
	}
	c := int32(1)
	for fc[c] == v {
		c++
	}
	atomic.StoreInt32(&colors[v], c)
	return c
}

// conflictRaw checks v against its neighbors over the raw CSR arrays with
// plain loads: the conflict-detection loop starts only after the
// tentative-coloring loop's barrier, and nothing writes colors while it
// runs, so the happens-before edge of the barrier makes unsynchronised
// reads exact here — the branch-avoiding form of Algorithm 4.
func conflictRaw(xadj []int64, adj, colors []int32, v int32) bool {
	cv := colors[v]
	for j := xadj[v]; j < xadj[v+1]; j++ {
		if w := adj[j]; cv == colors[w] && v < w {
			return true
		}
	}
	return false
}

// ColorTeam runs the iterative speculative coloring on an OpenMP-style
// Team with the given loop options, using the scratch's pooled state.
func (s *Scratch) ColorTeam(ctx context.Context, g *graph.Graph, team *sched.Team, opts sched.ForOptions) (Result, error) {
	s.loop.OnTeam(team, opts.WithSerialCutoff(team.Workers()))
	return s.color(ctx, g)
}

// ColorCilk runs the iterative speculative coloring as cilk_for loops on a
// work-stealing Pool using the scratch's pooled state. The per-worker
// forbidden-color arrays are the scratch's — the holder's lazy per-worker
// views are exactly the allocation the pooled scratch exists to eliminate —
// so the CilkVariant is ignored; the parameter stays only because
// bench/ladder.go compiles against it. grain <= 0 uses the Cilk default.
func (s *Scratch) ColorCilk(ctx context.Context, g *graph.Graph, pool *sched.Pool, grain int, _ CilkVariant) (Result, error) {
	s.loop.OnCilk(pool, grain)
	return s.color(ctx, g)
}

// ColorTBB runs the iterative speculative coloring as TBB parallel_for
// calls over blocked ranges using the scratch's pooled state (the scratch
// plays the role of the enumerable thread-specific storage and the
// combinable max) with the given partitioner and grain (minimum chunk).
func (s *Scratch) ColorTBB(ctx context.Context, g *graph.Graph, pool *sched.Pool, part sched.Partitioner, grain int) (Result, error) {
	s.loop.OnTBB(pool, part, grain)
	return s.color(ctx, g)
}

// color is the round loop of Algorithms 2–4 on whatever s.loop is bound to:
// tentative coloring, then conflict detection, until no conflicts remain.
func (s *Scratch) color(ctx context.Context, g *graph.Graph) (Result, error) {
	workers := s.loop.Workers()
	s.ensure(g, workers)
	s.ensureBodies()
	s.xadj, s.adjr = g.Xadj(), g.AdjRaw()
	visit, next := s.visitA, s.visitB
	res := Result{Colors: s.colors, Conflicts: s.conflicts}
	var maxColor int32
	rec := telemetry.FromContext(ctx)

	for len(visit) > 0 {
		res.Rounds++
		var roundStart time.Time
		if telemetry.Active(rec) {
			roundStart = telemetry.Now(rec)
		}
		// Tentative coloring (Algorithm 3) with per-worker local maxima,
		// reduced by the main goroutine afterwards.
		for w := 0; w < workers; w++ {
			s.locals[w].v = 0
		}
		s.vs = visit
		err := s.loop.Run(ctx, len(visit), s.tent)
		for w := 0; w < workers; w++ {
			maxColor = max(maxColor, s.locals[w].v)
		}
		res.NumColors = int(maxColor)
		if err != nil {
			return res, err
		}

		// Conflict detection (Algorithm 4) into the other visit buffer via
		// the paper's atomic fetch-and-add index reservation.
		s.nextBuf = next
		s.count.Store(0)
		if err := s.loop.Run(ctx, len(visit), s.conf); err != nil {
			return res, err
		}
		conflicts := int(s.count.Load())
		if telemetry.Active(rec) {
			rec.Record(roundSample(rec, g, res.Rounds-1, visit, conflicts, roundStart))
		}
		visit, next = next[:conflicts], visit[:cap(visit)]
		res.Conflicts = append(res.Conflicts, conflicts)
	}
	s.conflicts = res.Conflicts[:0]
	return res, nil
}
