package coloring

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// Scratch owns every reusable buffer of the parallel coloring variants:
// the color array, the per-worker forbidden-color arrays and the
// double-buffered work lists, and the per-worker tallies of Check.
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
	workers        []colorWorker
	visitA, visitB []int32
	conflicts      []int

	// Per-round state read by the resident loop body below, so that
	// steady-state rounds dispatch with zero closure allocations: vs is the
	// round's work list (round one's, the identity, is read as v = i and
	// never written), visited the length of all the lists before it,
	// nextBuf the next round's list, count the shared fetch-and-add cursor
	// into it.
	xadj    []int64
	adjr    []int32
	vs      []int32
	visited int32
	nextBuf []int32
	count   atomic.Int64

	// body and bodyD2 are the resident loop bodies of the distance-1 and the
	// distance-2 round; a run picks one before its first round. checkBody is
	// Check's.
	body, bodyD2, checkBody func(lo, hi, w int)

	// Check's state: the colors under check and one tally per worker.
	checked []int32
	tallies []checkTally

	// loop is the parallel-for construct carrying a round's one loop; the
	// entry points differ only in how they bind it.
	loop sched.Loop
}

// colorWorker is one worker's state in a coloring round, a cache line wide:
// its forbidden-color array, whether it has fallen back to that array this
// round (arrayFit), and its run — the round-one chunks it colored back to
// back, [from, end) — whose arcs speculate's verify skips (parallel.go).
type colorWorker struct {
	fc        localFC
	array     bool
	from, end int32
	_         [28]byte
}

// extend adds the round-one chunk [lo, hi) to the worker's run: a chunk
// that starts where the run ends, or ends where it starts, is colored right
// after it by the same worker and extends it; any other chunk starts a new
// run, since the chunks between were another worker's.
func (wk *colorWorker) extend(lo, hi int32) {
	switch {
	case lo == wk.end:
		wk.end = hi
	case hi == wk.from:
		wk.from = lo
	default:
		wk.from, wk.end = lo, hi
	}
}

// checkTally is what one worker saw in a Check: how many vertices its
// chunks held and the lowest bad vertex among them (n if none), a cache line
// wide.
type checkTally struct {
	covered, first int
	_              [48]byte
}

// ensureBody lazily creates the resident loop bodies (they capture only s,
// so one closure each serves every run). Two bodies, not one over a function
// value: the first fit and the verify have to inline into speculate's loop.
func (s *Scratch) ensureBody() {
	if s.body != nil {
		return
	}
	s.body = func(lo, hi, w int) {
		wk := &s.workers[w]
		from, end := int32(noRun), int32(noRun)
		if s.visited == 0 {
			wk.extend(int32(lo), int32(hi))
			if localChunk(s.xadj, s.adjr, int32(lo), int32(hi)) {
				from, end = wk.from, wk.end
			}
		}
		s.speculate(wk, int32(lo), int32(hi), from, end)
	}
	s.bodyD2 = func(lo, hi, w int) {
		fc := s.workers[w].fc
		for i := lo; i < hi; i++ {
			v := int32(i)
			if s.visited != 0 {
				v = s.vs[i]
			}
			if speculateD2(s.xadj, s.adjr, s.colors, fc, v, s.visited+int32(i)) {
				appendConflict(s.nextBuf, &s.count, v)
			}
		}
	}
	s.checkBody = func(lo, hi, w int) {
		t := &s.tallies[w]
		t.covered += hi - lo
		if v := firstClash(s.xadj, s.adjr, s.checked, lo, hi); v < hi && v < t.first {
			t.first = v
		}
	}
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// ensure sizes and resets every buffer for a run over g with the given
// worker count and forbidden-color array length. The forbidden-color arrays
// are cut to fcLen, however long an earlier run grew them, and reset to the
// fresh state, so a recycled Scratch colors exactly like a new one. The work
// lists are only sized: round one's is the identity, read as v = i, and a
// later round's is written before it is read.
func (s *Scratch) ensure(g *graph.Graph, workers, fcLen int) {
	n := g.NumVertices()
	if cap(s.colors) < n {
		s.colors = make([]int32, n)
		s.visitA = make([]int32, n)
		s.visitB = make([]int32, n)
	}
	s.colors = s.colors[:n]
	s.visitA = s.visitA[:n]
	s.visitB = s.visitB[:n]
	clear(s.colors)
	if len(s.workers) < workers || cap(s.workers[0].fc) < fcLen {
		s.workers = make([]colorWorker, workers)
		for i := range s.workers {
			s.workers[i].fc = make(localFC, fcLen)
		}
	}
	for i := range s.workers {
		fc := s.workers[i].fc[:fcLen]
		for j := range fc {
			fc[j] = -1
		}
		s.workers[i].fc = fc
	}
	s.conflicts = s.conflicts[:0]
}

// noRun marks a chunk whose vertices verify every arc.
const noRun = math.MaxInt32

// speculate colors the work list's entries lo to hi−1 — in round one, whose
// list is the identity, the vertices lo to hi−1 — over the raw CSR arrays,
// and queues for the next round each one that must be colored again. Per
// vertex: gather the neighbors' colors, take the first fit, publish it, then
// re-read the same neighbors — still in L1 — for one holding that color
// (parallel.go says why this catches every clash). Atomic because neighbors
// are colored concurrently; a vertex's visit number, the length of the
// earlier rounds' lists plus its index, marks its forbidden colors.
//
// The re-read skips the neighbors in the worker's run [from, end): in round
// one a neighbor there was colored by this worker, in order, once this
// round, so the later end's gather read the earlier end's final color and
// the arc cannot clash (parallel.go). The list is sorted, so the arcs that
// leave the run are a prefix below from and a suffix from end. A chunk with
// no run (noRun) re-reads every arc in one plain loop (holds): the run's
// bound test on every arc read shuffled RMAT-19 a few percent slower.
func (s *Scratch) speculate(wk *colorWorker, lo, hi, from, end int32) {
	xadj, adj, colors, vs, visited := s.xadj, s.adjr, s.colors, s.vs, s.visited
	for i := lo; i < hi; i++ {
		v := i
		if visited != 0 {
			v = vs[i]
		}
		nbrs := adj[xadj[v]:xadj[v+1]]
		c := int32(64)
		if !wk.array {
			c = maskFit(colors, nbrs)
		}
		if c == 64 {
			c = wk.arrayFit(colors, nbrs, visited+i)
		}
		atomic.StoreInt32(&colors[v], c)
		var clash bool
		if from == noRun {
			clash = holds(colors, nbrs, c)
		} else {
			clash = clashOutside(colors, nbrs, c, from, end)
		}
		if clash {
			appendConflict(s.nextBuf, &s.count, v)
		}
	}
}

// maskFit returns the smallest color no neighbor in nbrs holds, or 64 when
// it cannot tell. The gather ORs each color's bit into a 64-bit mask and the
// colors themselves into one word: while that word is below 64 every color
// had a bit of its own, and the first fit is the mask's lowest clear bit
// above bit 0 (0 is "uncolored", no color's). First fit depends only on the
// set of neighbor colors, so this is arrayFit's answer whenever it is below
// 64 (TestMaskFitMatchesArrayFit). The gather stores nothing, so no
// neighbor's load waits behind a store whose address hangs on the load
// before it. 64 means a neighbor holds a color of 64 or more, or colors 1 to
// 63 are all taken.
func maskFit(colors, nbrs []int32) int32 {
	var m uint64
	var seen int32
	for _, u := range nbrs {
		c := atomic.LoadInt32(&colors[u])
		m |= 1 << (uint32(c) & 63)
		seen |= c
	}
	if seen >= 64 {
		return 64
	}
	return int32(bits.TrailingZeros64(^(m | 1)))
}

// arrayFit is first fit through the worker's forbidden-color array, for the
// vertices maskFit cannot color: it marks fc[color] = visit for every
// neighbor — without testing for "uncolored" (slot 0 is no color's; on a
// mesh half the neighbors are, in no order a branch predictor learns) — and
// takes the first color not marked. The worker stays on the array for the
// rest of its round, so a graph that needs more than 63 colors pays one
// wasted gather a worker a round, not one a vertex.
func (wk *colorWorker) arrayFit(colors, nbrs []int32, visit int32) int32 {
	wk.array = true
	fc := wk.fc
	for _, u := range nbrs {
		fc[atomic.LoadInt32(&colors[u])] = visit
	}
	c := int32(1)
	for fc[c] == visit {
		c++
	}
	return c
}

// localChunk reports whether the round-one chunk [lo, hi) — the vertices lo
// to hi−1, the work list being the identity — verifies against its worker's
// run: whether its first vertex has a neighbor later in the chunk. One
// binary search a chunk, and a property of the input's order: on a banded
// mesh in natural order nearly every chunk has one, on a shuffled graph
// nearly none.
func localChunk(xadj []int64, adj []int32, lo, hi int32) bool {
	nbrs := adj[xadj[lo]:xadj[lo+1]]
	i, _ := slices.BinarySearch(nbrs, lo+1)
	return i < len(nbrs) && nbrs[i] < hi
}

// holds reports whether a neighbor in nbrs holds color c.
func holds(colors, nbrs []int32, c int32) bool {
	for _, u := range nbrs {
		if atomic.LoadInt32(&colors[u]) == c {
			return true
		}
	}
	return false
}

// clashOutside reports whether a neighbor in the sorted list nbrs outside
// [from, end) holds color c.
func clashOutside(colors, nbrs []int32, c, from, end int32) bool {
	for _, u := range nbrs {
		if u >= from {
			break
		}
		if atomic.LoadInt32(&colors[u]) == c {
			return true
		}
	}
	for i := len(nbrs) - 1; i >= 0 && nbrs[i] >= end; i-- {
		if atomic.LoadInt32(&colors[nbrs[i]]) == c {
			return true
		}
	}
	return false
}

// ColorTeam runs the iterative speculative coloring on an OpenMP-style
// Team with the given loop options, using the scratch's pooled state.
func (s *Scratch) ColorTeam(ctx context.Context, g *graph.Graph, team *sched.Team, opts sched.ForOptions) (Result, error) {
	s.loop.OnTeam(team, opts)
	return s.color(ctx, g, false)
}

// ColorCilk runs the iterative speculative coloring as cilk_for loops on a
// work-stealing Pool using the scratch's pooled state. The per-worker
// forbidden-color arrays are the scratch's — the holder's lazy per-worker
// views are exactly the allocation the pooled scratch exists to eliminate —
// so the CilkVariant is ignored; the parameter stays only because
// bench/ladder.go compiles against it. grain <= 0 uses the Cilk default.
func (s *Scratch) ColorCilk(ctx context.Context, g *graph.Graph, pool *sched.Pool, grain int, _ CilkVariant) (Result, error) {
	s.loop.OnCilk(pool, grain)
	return s.color(ctx, g, false)
}

// ColorTBB runs the iterative speculative coloring as TBB parallel_for
// calls over blocked ranges using the scratch's pooled state (the scratch
// plays the role of the enumerable thread-specific storage) with the given
// partitioner and grain (minimum chunk).
func (s *Scratch) ColorTBB(ctx context.Context, g *graph.Graph, pool *sched.Pool, part sched.Partitioner, grain int) (Result, error) {
	s.loop.OnTBB(pool, part, grain)
	return s.color(ctx, g, false)
}

// Check is Validate run as a loop on team under opts, and returns exactly
// Validate's error: each worker keeps the lowest bad vertex of its chunks,
// and the lowest of those is reported, whatever the worker count or the
// interleaving. It also fails when the chunks the workers ran do not add up
// to the graph, so a scheduler fault cannot silently skip part of the check.
// The loop's chunk claims are the team's fault sites and book into its
// counters; a contained panic or a cancellation comes back as the loop
// returned it. colors may alias the scratch's last Result; the check only
// reads it. A steady-state Check allocates nothing.
func (s *Scratch) Check(ctx context.Context, g *graph.Graph, colors []int32, team *sched.Team, opts sched.ForOptions) error {
	n := g.NumVertices()
	if len(colors) != n {
		return lengthError(colors, n)
	}
	s.ensureBody()
	s.loop.OnTeam(team, opts)
	workers := s.loop.Workers()
	if len(s.tallies) < workers {
		s.tallies = make([]checkTally, workers)
	}
	tallies := s.tallies[:workers]
	for i := range tallies {
		tallies[i] = checkTally{first: n}
	}
	s.xadj, s.adjr, s.checked = g.Xadj(), g.AdjRaw(), colors
	err := s.loop.Run(ctx, n, s.checkBody)
	s.checked = nil
	if err != nil {
		return err
	}
	covered, first := 0, n
	for _, t := range tallies {
		covered += t.covered
		first = min(first, t.first)
	}
	if covered != n {
		return fmt.Errorf("coloring: check covered %d of %d vertices", covered, n)
	}
	if first < n {
		return clashError(g, colors, first)
	}
	return nil
}

// color is the round loop of Algorithms 2–4 on whatever s.loop is bound to:
// one publish-then-verify sweep over the work list per round (parallel.go),
// until a round queues nothing. A vertex has at most Δ neighbours at
// distance 1 and min(Δ², n−1) within distance 2, which bounds the first fit
// and so sizes the forbidden-color arrays (speculateD2 wants a slot more).
func (s *Scratch) color(ctx context.Context, g *graph.Graph, d2 bool) (Result, error) {
	s.ensureBody()
	body, fcLen := s.body, g.MaxDegree()+2
	if d2 {
		d := int64(g.MaxDegree())
		body, fcLen = s.bodyD2, int(min(d*d, int64(g.NumVertices()-1)))+3
	}
	s.ensure(g, s.loop.Workers(), fcLen)
	s.xadj, s.adjr = g.Xadj(), g.AdjRaw()
	visit, next := s.visitA, s.visitB
	s.visited = 0
	res := Result{Colors: s.colors, Conflicts: s.conflicts}
	rec := telemetry.FromContext(ctx)

	var err error
	inline := false
	for len(visit) > 0 {
		res.Rounds++
		var roundStart time.Time
		if telemetry.Active(rec) {
			roundStart = telemetry.Now(rec)
		}
		s.vs, s.nextBuf = visit, next
		s.count.Store(0)
		for i := range s.workers { // back on the mask, with no run
			s.workers[i].array, s.workers[i].from, s.workers[i].end = false, -1, -1
		}
		if !inline {
			err = s.loop.Run(ctx, len(visit), body)
		} else if ctx == nil || ctx.Err() == nil {
			body(0, len(visit), 0)
		} else {
			err = ctx.Err()
		}
		if err != nil {
			break
		}
		conflicts := int(s.count.Load())
		if telemetry.Active(rec) {
			rec.Record(roundSample(rec, g, res.Rounds-1, visit, conflicts, roundStart))
		}
		// Lockstep workers can requeue both ends of an edge forever; a
		// round on the caller alone cannot clash, and ends the run.
		inline = conflicts >= len(visit)
		s.visited += int32(len(visit))
		visit, next = next[:conflicts], visit[:cap(visit)]
		res.Conflicts = append(res.Conflicts, conflicts)
	}
	// In use, not ever tried: a top color lost in a later round is gone.
	res.NumColors = CountColors(s.colors)
	s.conflicts = res.Conflicts[:0]
	return res, err
}
