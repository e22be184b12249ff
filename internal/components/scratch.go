package components

import (
	"context"
	"sync/atomic"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// Scratch owns the reusable arrays of the parallel components kernels, so
// repeated runs (the serving layer, benchmarks) allocate nothing in steady
// state. A Scratch is single-run: the returned Result.Labels aliases
// scratch-owned memory, valid until the next run on the same Scratch;
// callers that run once write NewScratch().LabelPropagation(ctx, ...).
//
// Both methods poll ctx (which may be nil) at chunk-claim boundaries and
// between sweeps; on cancellation or a contained panic they return the
// partial labels alongside the error. Every completed sweep records one
// telemetry.PhaseSample of kernel "components": Items = vertices walked,
// Edges = arcs walked, Claims = labels lowered (phase "round", "compress")
// or hooks won ("hook").
//
// Any worker may write any vertex's label, so a sweep touches labels and
// dirty only atomically — sequentially consistent in Go, which the two rules
// of label propagation's flags need (DESIGN.md §2 has the argument). Flag
// after store: whoever lowers a label in a round raises that vertex's flag
// afterwards, so a walk always follows a vertex's final label. Clear before
// load: the walk that takes a flag down reads the label after that, so it
// cannot wipe the flag of a store it did not see. The compress sweep between
// rounds lowers labels without flags; it may, because it runs alone.
type Scratch struct {
	labels  []int32
	dirty   []uint32 // label propagation: v's label may not have reached v's neighbours
	tallies []tally  // one per worker

	// Per-run state read by the resident loop bodies below, so steady-state
	// sweeps dispatch with zero closure allocations.
	xadj []int64
	adj  []int32

	lpBody, hookBody, compressBody func(lo, hi, w int)

	// loop carries every sweep; both kernels bind it to their team.
	loop sched.Loop
}

// tally is what one worker counted in a sweep (raised: flags taken from 0 to
// 1), a cache line wide; the coordinator sums them after the barrier.
type tally struct {
	items, edges, claims, raised int64
	_                            [32]byte
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// ensure sizes the label array and initialises labels[v] = v.
func (s *Scratch) ensure(n int) []int32 {
	if cap(s.labels) < n {
		s.labels = make([]int32, n)
	}
	s.labels = s.labels[:n]
	for v := range s.labels {
		s.labels[v] = int32(v)
	}
	return s.labels
}

// sweep runs body as one parallel loop over the vertices on s.loop and
// returns the sum of the workers' tallies, recorded as sample index of phase.
func (s *Scratch) sweep(ctx context.Context, body func(lo, hi, w int), phase string, index int) (sum tally, err error) {
	if len(s.tallies) < s.loop.Workers() {
		s.tallies = make([]tally, s.loop.Workers())
	}
	rec := telemetry.FromContext(ctx)
	start := telemetry.Now(rec)
	err = s.loop.Run(ctx, len(s.labels), body)
	for _, t := range s.tallies {
		sum.items += t.items
		sum.edges += t.edges
		sum.claims += t.claims
		sum.raised += t.raised
	}
	clear(s.tallies)
	if err == nil && telemetry.Active(rec) {
		rec.Record(telemetry.PhaseSample{
			Kernel: "components", Phase: phase, Index: index,
			Items: sum.items, Edges: sum.edges, Claims: sum.claims,
			Duration: telemetry.Since(rec, start),
		})
	}
	return sum, err
}

// push CAS-lowers u's label, last read as cur, to m and, if this call did it,
// raises u's flag. A flag read as raised needs no swap: it is cleared, if at
// all, after this read, hence after the store before it.
func (t *tally) push(lbl []int32, dirty []uint32, u, cur, m int32) {
	for cur > m {
		if atomic.CompareAndSwapInt32(&lbl[u], cur, m) {
			t.claims++
			if atomic.LoadUint32(&dirty[u]) == 0 && atomic.SwapUint32(&dirty[u], 1) == 0 {
				t.raised++
			}
			return
		}
		cur = atomic.LoadInt32(&lbl[u])
	}
}

// ensureBodies lazily creates the resident loop bodies (they capture only s,
// so one closure each serves every run).
func (s *Scratch) ensureBodies() {
	if s.lpBody != nil {
		return
	}
	// Walk v: pass its arcs once with a running minimum m. A neighbour
	// holding less lowers m on the spot (pull), one holding more is lowered
	// to m (push); if m fell on the way, the neighbours passed before hold
	// too much, so v lowers and flags itself.
	s.lpBody = func(lo, hi, w int) {
		xadj, adj, lbl, dirty := s.xadj, s.adj, s.labels, s.dirty
		t := s.tallies[w]
		for v := lo; v < hi; v++ {
			if atomic.LoadUint32(&dirty[v]) == 0 {
				continue
			}
			atomic.StoreUint32(&dirty[v], 0)
			own := atomic.LoadInt32(&lbl[v])
			m := own
			nbrs := adj[xadj[v]:xadj[v+1]]
			for _, u := range nbrs {
				if l := atomic.LoadInt32(&lbl[u]); l < m {
					m = l
				} else if l > m {
					t.push(lbl, dirty, u, l, m)
				}
			}
			t.push(lbl, dirty, int32(v), own, m)
			t.items++
			t.edges += int64(len(nbrs))
		}
		s.tallies[w] = t
	}
	// Adjacency is sorted (graph.Validate's invariant), so v's lower
	// neighbours come first. One whose parent is v's costs one load: v's is
	// read once and kept, and a stale parent was an ancestor, so is still in
	// v's tree.
	s.hookBody = func(lo, hi, w int) {
		xadj, adj, par := s.xadj, s.adj, s.labels
		t := s.tallies[w]
		for v := int32(lo); v < int32(hi); v++ {
			pv := atomic.LoadInt32(&par[v])
			for _, u := range adj[xadj[v]:xadj[v+1]] {
				if u > v {
					break
				}
				t.edges++
				if atomic.LoadInt32(&par[u]) == pv {
					continue
				}
				if unite(par, u, v) {
					t.claims++
				}
				pv = atomic.LoadInt32(&par[v])
			}
		}
		t.items += int64(hi - lo)
		s.tallies[w] = t
	}
	// Point every vertex at the root of its label: label[v] = root(label[v]).
	// Both kernels run it at a barrier; it raises no flag.
	s.compressBody = func(lo, hi, w int) {
		par := s.labels
		t := s.tallies[w]
		for v := lo; v < hi; v++ {
			p := atomic.LoadInt32(&par[v])
			if r := find(par, p); r != p {
				atomic.StoreInt32(&par[v], r)
				t.claims++
			}
		}
		t.items += int64(hi - lo)
		s.tallies[w] = t
	}
}

// LabelPropagation runs data-driven min-label propagation on the scratch's
// pooled arrays over the raw CSR arrays. Every vertex starts dirty; a round
// is one sweep in index order that walks the dirty vertices only. Only a
// walk clears a flag and every walk clears one, so flags up = flags up
// before + raised − walked, exact at a barrier: the loop ends at zero, with
// no sweep to confirm that nothing moved.
//
// A label is a vertex id, so it is also a pointer, and a round that leaves
// a flag up is followed by PointerJumping's compress sweep: every label
// jumps to the root it leads to, without a walk and without a flag. Shiloach
// and Vishkin's shortcut is exact here only because it runs at a barrier,
// where no walk is running (DESIGN.md §2). It is what carries a block's
// label across the next block: that block's vertices point at one vertex of
// the block before, which has fallen since, and one streaming pass lowers
// them all instead of a round that walks them again.
func (s *Scratch) LabelPropagation(ctx context.Context, g *graph.Graph, team *sched.Team, opts sched.ForOptions) (Result, error) {
	n := g.NumVertices()
	res := Result{Labels: s.ensure(n)}
	if cap(s.dirty) < n {
		s.dirty = make([]uint32, n)
	}
	s.dirty = s.dirty[:n]
	for v := range s.dirty {
		s.dirty[v] = 1
	}
	s.xadj, s.adj = g.Xadj(), g.AdjRaw()
	s.ensureBodies()
	s.loop.OnTeam(team, opts)

	var err error
	for up := int64(n); up > 0 && err == nil; res.Rounds++ {
		var t tally
		t, err = s.sweep(ctx, s.lpBody, "round", res.Rounds)
		if up += t.raised - t.items; up > 0 && err == nil {
			_, err = s.sweep(ctx, s.compressBody, "compress", res.Rounds)
		}
	}
	res.Count = countRoots(res.Labels)
	return res, err
}

// find returns the root of v's tree, halving the path on the way. Parents
// only fall, so a failed CAS means someone shortened the same hop already.
func find(par []int32, v int32) int32 {
	for {
		p := atomic.LoadInt32(&par[v])
		gp := atomic.LoadInt32(&par[p])
		if p == gp {
			return p
		}
		atomic.CompareAndSwapInt32(&par[v], p, gp)
		v = gp
	}
}

// unite joins the trees of u and v and reports whether this call hooked one
// root under the other. The larger root goes under the smaller, so a tree's
// root is always its minimum; the CAS fails only if the larger stopped being
// a root, and then both are found again.
func unite(par []int32, u, v int32) bool {
	for {
		u, v = find(par, u), find(par, v)
		if u == v {
			return false
		}
		if u < v {
			u, v = v, u
		}
		if atomic.CompareAndSwapInt32(&par[u], u, v) {
			return true
		}
	}
}

// PointerJumping runs an asynchronous union-find (Jayanti & Tarjan; GBBS's
// UF-async) on the scratch's pooled parent array over the raw CSR arrays:
// one sweep hooks every undirected edge once, from its higher end, and one
// compress sweep then points every vertex at its root. Shiloach and
// Vishkin's pointer jump is find's path halving, interleaved with the hooks
// instead of fenced off from them by barriers.
func (s *Scratch) PointerJumping(ctx context.Context, g *graph.Graph, team *sched.Team, opts sched.ForOptions) (Result, error) {
	n := g.NumVertices()
	res := Result{Labels: s.ensure(n)}
	if n == 0 {
		return res, nil
	}
	res.Rounds = 1
	s.xadj, s.adj = g.Xadj(), g.AdjRaw()
	s.ensureBodies()
	s.loop.OnTeam(team, opts)

	_, err := s.sweep(ctx, s.hookBody, "hook", 0)
	if err == nil {
		_, err = s.sweep(ctx, s.compressBody, "compress", 0)
	}
	res.Count = countRoots(res.Labels)
	return res, err
}
