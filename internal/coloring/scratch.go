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

	tentTeam func(lo, hi, w int)
	confTeam func(lo, hi, w int)
	tentPool func(lo, hi int, c *sched.Ctx)
	confPool func(lo, hi int, c *sched.Ctx)
	aff      sched.AffinityState // TBB affinity map (resident, escapes)
}

// ensureBodies lazily creates the resident loop bodies (they capture only
// s, so one set serves every run).
func (s *Scratch) ensureBodies() {
	if s.tentTeam != nil {
		return
	}
	tent := func(lo, hi, w int) {
		fc := s.fcs[w]
		localMax := s.locals[w].v
		for i := lo; i < hi; i++ {
			if c := tentativeRaw(s.xadj, s.adjr, s.colors, fc, s.vs[i]); c > localMax {
				localMax = c
			}
		}
		s.locals[w].v = localMax
	}
	conf := func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			if v := s.vs[i]; conflictRaw(s.xadj, s.adjr, s.colors, v) {
				appendConflict(s.nextBuf, &s.count, v)
			}
		}
	}
	s.tentTeam = tent
	s.confTeam = conf
	s.tentPool = func(lo, hi int, c *sched.Ctx) { tent(lo, hi, c.Worker()) }
	s.confPool = func(lo, hi int, c *sched.Ctx) { conf(lo, hi, c.Worker()) }
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

// maxOf reduces the per-worker color maxima.
func (s *Scratch) maxOf(workers int) int32 {
	out := int32(0)
	for w := 0; w < workers; w++ {
		if s.locals[w].v > out {
			out = s.locals[w].v
		}
	}
	return out
}

// ColorTeam runs the iterative speculative coloring on an OpenMP-style
// Team with the given loop options, using the scratch's pooled state.
func (s *Scratch) ColorTeam(ctx context.Context, g *graph.Graph, team *sched.Team, opts sched.ForOptions) (Result, error) {
	workers := team.Workers()
	opts = opts.WithSerialCutoff(workers)
	s.ensure(g, workers)
	s.ensureBodies()
	s.xadj, s.adjr = g.Xadj(), g.AdjRaw()
	colors := s.colors
	visit, next := s.visitA, s.visitB
	res := Result{Colors: colors, Conflicts: s.conflicts}
	maxColor := int32(0)
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
		vs := visit
		s.vs = vs
		err := team.ForCtx(ctx, len(vs), opts, s.tentTeam)
		if lm := s.maxOf(workers); lm > maxColor {
			maxColor = lm
		}
		if err != nil {
			res.NumColors = int(maxColor)
			return res, err
		}

		// Conflict detection (Algorithm 4) into the other visit buffer via
		// the paper's atomic fetch-and-add index reservation.
		s.nextBuf = next
		s.count.Store(0)
		err = team.ForCtx(ctx, len(vs), opts, s.confTeam)
		if err != nil {
			res.NumColors = int(maxColor)
			return res, err
		}
		if telemetry.Active(rec) {
			rec.Record(roundSample(rec, g, res.Rounds-1, vs, int(s.count.Load()), roundStart))
		}
		visit, next = next[:s.count.Load()], vs[:cap(vs)]
		res.Conflicts = append(res.Conflicts, len(visit))
	}
	s.conflicts = res.Conflicts[:0]
	res.NumColors = int(maxColor)
	return res, nil
}

// ColorCilk runs the iterative speculative coloring as cilk_for loops on a
// work-stealing Pool using the scratch's pooled state. Both Cilk variants
// read the per-worker forbidden-color arrays from the scratch — the
// holder's lazy per-worker views are exactly the allocation the pooled
// scratch exists to eliminate, so here they differ only in name. grain <= 0
// uses the Cilk default.
func (s *Scratch) ColorCilk(ctx context.Context, g *graph.Graph, pool *sched.Pool, grain int, variant CilkVariant) (Result, error) {
	_ = variant
	workers := pool.Workers()
	s.ensure(g, workers)
	s.ensureBodies()
	s.xadj, s.adjr = g.Xadj(), g.AdjRaw()
	colors := s.colors
	visit, next := s.visitA, s.visitB
	res := Result{Colors: colors, Conflicts: s.conflicts}
	maxColor := int32(0)
	rec := telemetry.FromContext(ctx)

	for len(visit) > 0 {
		res.Rounds++
		vs := visit
		var roundStart time.Time
		if telemetry.Active(rec) {
			roundStart = telemetry.Now(rec)
		}
		for w := 0; w < workers; w++ {
			s.locals[w].v = 0
		}
		s.vs = vs
		err := pool.ParallelForCtx(ctx, len(vs), grain, s.tentPool)
		if lm := s.maxOf(workers); lm > maxColor {
			maxColor = lm
		}
		if err != nil {
			res.NumColors = int(maxColor)
			return res, err
		}

		s.nextBuf = next
		s.count.Store(0)
		err = pool.ParallelForCtx(ctx, len(vs), grain, s.confPool)
		if err != nil {
			res.NumColors = int(maxColor)
			return res, err
		}
		if telemetry.Active(rec) {
			rec.Record(roundSample(rec, g, res.Rounds-1, vs, int(s.count.Load()), roundStart))
		}
		visit, next = next[:s.count.Load()], vs[:cap(vs)]
		res.Conflicts = append(res.Conflicts, len(visit))
	}
	s.conflicts = res.Conflicts[:0]
	res.NumColors = int(maxColor)
	return res, nil
}

// ColorTBB runs the iterative speculative coloring as TBB parallel_for
// calls over blocked ranges using the scratch's pooled state (the scratch
// plays the role of the enumerable thread-specific storage and the
// combinable max) with the given partitioner and grain (minimum chunk).
func (s *Scratch) ColorTBB(ctx context.Context, g *graph.Graph, pool *sched.Pool, part sched.Partitioner, grain int) (Result, error) {
	workers := pool.Workers()
	s.ensure(g, workers)
	s.ensureBodies()
	s.xadj, s.adjr = g.Xadj(), g.AdjRaw()
	colors := s.colors
	visit, next := s.visitA, s.visitB
	res := Result{Colors: colors, Conflicts: s.conflicts}
	maxColor := int32(0)
	rec := telemetry.FromContext(ctx)

	for len(visit) > 0 {
		res.Rounds++
		vs := visit
		var roundStart time.Time
		if telemetry.Active(rec) {
			roundStart = telemetry.Now(rec)
		}
		for w := 0; w < workers; w++ {
			s.locals[w].v = 0
		}
		s.vs = vs
		err := sched.ParallelForRangeCtx(ctx, pool, sched.Range{Lo: 0, Hi: len(vs), Grain: grain}, part, &s.aff, s.tentPool)
		if lm := s.maxOf(workers); lm > maxColor {
			maxColor = lm
		}
		if err != nil {
			res.NumColors = int(maxColor)
			return res, err
		}

		s.nextBuf = next
		s.count.Store(0)
		err = sched.ParallelForRangeCtx(ctx, pool, sched.Range{Lo: 0, Hi: len(vs), Grain: grain}, part, &s.aff, s.confPool)
		if err != nil {
			res.NumColors = int(maxColor)
			return res, err
		}
		if telemetry.Active(rec) {
			rec.Record(roundSample(rec, g, res.Rounds-1, vs, int(s.count.Load()), roundStart))
		}
		visit, next = next[:s.count.Load()], vs[:cap(vs)]
		res.Conflicts = append(res.Conflicts, len(visit))
	}
	s.conflicts = res.Conflicts[:0]
	res.NumColors = int(maxColor)
	return res, nil
}
