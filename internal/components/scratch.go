package components

import (
	"context"
	"sync/atomic"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// Scratch owns the reusable label array of the parallel components
// kernels, so repeated runs (the serving layer, benchmarks) allocate
// nothing in steady state. A Scratch is single-run: the returned
// Result.Labels aliases scratch-owned memory, valid until the next run on
// the same Scratch; callers that run once write
// NewScratch().LabelPropagation(ctx, ...).
//
// Both methods poll ctx (which may be nil) at chunk-claim boundaries and
// between rounds; on cancellation or a contained panic they return the
// partial labels alongside the error.
type Scratch struct {
	labels []int32

	// Per-run state read by the resident loop bodies below, so steady-state
	// rounds dispatch with zero closure allocations.
	xadj    []int64
	adj     []int32
	changed atomic.Bool
	jumped  atomic.Bool

	lpBody   func(lo, hi, w int)
	hookBody func(lo, hi, w int)
	jumpBody func(lo, hi, w int)
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

// LabelPropagation runs min-label propagation on the scratch's pooled
// label array over the raw CSR arrays. Neighbor labels are read atomically
// (they may be written concurrently); a vertex's own label is only written
// by its owning chunk, so the pre-round read needs no synchronisation.
func (s *Scratch) LabelPropagation(ctx context.Context, g *graph.Graph, team *sched.Team, opts sched.ForOptions) (Result, error) {
	n := g.NumVertices()
	labels := s.ensure(n)
	res := Result{Labels: labels}
	if n == 0 {
		return res, nil
	}
	s.xadj, s.adj = g.Xadj(), g.AdjRaw()
	if s.lpBody == nil {
		s.lpBody = func(lo, hi, w int) {
			xadj, adj, lbl := s.xadj, s.adj, s.labels
			localChanged := false
			for v := lo; v < hi; v++ {
				old := lbl[v]
				min := old
				for j := xadj[v]; j < xadj[v+1]; j++ {
					if l := atomic.LoadInt32(&lbl[adj[j]]); l < min {
						min = l
					}
				}
				if min < old {
					atomic.StoreInt32(&lbl[v], min)
					localChanged = true
				}
			}
			if localChanged {
				s.changed.Store(true)
			}
		}
	}

	for {
		res.Rounds++
		s.changed.Store(false)
		err := team.ForCtx(ctx, n, opts, s.lpBody)
		if err != nil {
			res.Count = countRoots(labels)
			return res, err
		}
		if !s.changed.Load() {
			break
		}
	}
	res.Count = countRoots(labels)
	return res, nil
}

// PointerJumping runs the hook-and-compress union on the scratch's pooled
// parent array over the raw CSR arrays.
func (s *Scratch) PointerJumping(ctx context.Context, g *graph.Graph, team *sched.Team, opts sched.ForOptions) (Result, error) {
	n := g.NumVertices()
	parent := s.ensure(n)
	res := Result{Labels: parent}
	if n == 0 {
		return res, nil
	}
	s.xadj, s.adj = g.Xadj(), g.AdjRaw()
	if s.hookBody == nil {
		s.hookBody = func(lo, hi, w int) {
			xadj, adj, par := s.xadj, s.adj, s.labels
			for v := lo; v < hi; v++ {
				pv := atomic.LoadInt32(&par[v])
				for j := xadj[v]; j < xadj[v+1]; j++ {
					pu := atomic.LoadInt32(&par[adj[j]])
					if pu < pv {
						// CAS onto the root's parent; benign failures are
						// retried next round.
						if atomic.CompareAndSwapInt32(&par[pv], pv, pu) {
							s.changed.Store(true)
						}
						pv = pu
					}
				}
			}
		}
		s.jumpBody = func(lo, hi, w int) {
			par := s.labels
			for v := lo; v < hi; v++ {
				p := atomic.LoadInt32(&par[v])
				gp := atomic.LoadInt32(&par[p])
				if gp != p {
					atomic.StoreInt32(&par[v], gp)
					s.jumped.Store(true)
				}
			}
		}
	}

	for {
		res.Rounds++
		s.changed.Store(false)
		// Hook: point our root at the smallest neighboring root.
		err := team.ForCtx(ctx, n, opts, s.hookBody)
		if err != nil {
			res.Count = countRoots(parent)
			return res, err
		}
		// Compress: pointer jumping until every tree is a star.
		for {
			s.jumped.Store(false)
			err := team.ForCtx(ctx, n, opts, s.jumpBody)
			if err != nil {
				res.Count = countRoots(parent)
				return res, err
			}
			if !s.jumped.Load() {
				break
			}
		}
		if !s.changed.Load() {
			break
		}
	}
	res.Count = countRoots(parent)
	return res, nil
}
