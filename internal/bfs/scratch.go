package bfs

import (
	"context"
	"sync/atomic"
	"time"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// Scratch owns every reusable buffer of the parallel BFS variants: the
// level array, the flat frontier arrays with their per-worker next-level
// queues, and the block-accessed queue pair with its per-worker writers. A
// kernel run through a Scratch allocates nothing on its hot path in steady
// state (pinned by the alloc-regression tests); the first run on a new
// graph size grows the buffers once.
//
// A Scratch is single-run: one BFS at a time. The returned Result aliases
// scratch-owned memory (Levels, Widths), valid until the next run on the
// same Scratch — callers that need the result beyond that must copy it,
// and callers that run once write NewScratch().BlockTeam(ctx, ...).
//
// Every method polls ctx (which may be nil) where its runtime claims work
// — chunk claims, range splits, task boundaries — and between levels; on
// cancellation or a contained panic it returns the partial traversal
// state alongside the error.
type Scratch struct {
	// levels is the shared level array (claim target of every variant).
	levels []int32

	// Flat frontier arrays and per-worker next-level queues (TLS, bag and
	// hybrid variants, hybrid.go).
	frontA, frontB []int32
	queues         []flatQueue

	// Block-accessed queue pair (OpenMP-Block / TBB-Block variants).
	qA, qB     *BlockQueue
	writers    []*Writer
	qBlockSize int

	// Per-worker counters (processed entries and claims per level).
	counts []paddedCount

	// widths backs Result.Widths: the level barriers append each level's
	// summed claims to it, so no pass over the level array counts them.
	widths []int64

	// Per-run/per-level state read by the resident loop bodies below. The
	// bodies are created once per Scratch and capture only s, so steady-state
	// levels dispatch with zero allocations (pinned by the kerneltest alloc
	// gates): the per-level variation travels through these fields, set by
	// the driving method between loops.
	xadj    []int64
	adj     []int32
	lv      int32
	relaxed bool
	queue   []int32 // block variants: current frontier
	span    int     // block variants, dense level: vertices an iteration
	cur     []int32 // flat variants: current frontier

	blockBody func(lo, hi, w int) // block variants: expand queue entries
	denseBody func(lo, hi, w int) // block variants: expand level lv-1 in id order
	flatTD    func(lo, hi, w int) // flat variants: top-down claim
	flatBU    func(lo, hi, w int) // hybrid: bottom-up sweep

	// loop is the parallel-for construct carrying every level of both level
	// loops; the entry points differ only in how they bind it.
	loop sched.Loop
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// paddedCount keeps per-worker counters off each other's cache lines: the
// queue entries a worker expanded in a level, and the vertices it claimed.
type paddedCount struct {
	n      int64
	claims int64
	_      [48]byte
}

// ensureCommon sizes the level array and resets it to Unvisited, and empties
// the widths. The widths get the capacity of widthsCap levels (at most n+1: a
// partial run may end on an empty level), so a fresh Scratch makes one
// allocation for them, and a deeper graph grows them by append.
func (s *Scratch) ensureCommon(n int) {
	if cap(s.levels) < n {
		s.levels = make([]int32, n)
	}
	s.levels = s.levels[:n]
	fillUnvisited(s.levels)
	if c := min(n+1, widthsCap); cap(s.widths) < c {
		s.widths = make([]int64, 0, c)
	}
	s.widths = s.widths[:0]
}

// ensureWorkers sizes the per-worker state shared by the variants.
func (s *Scratch) ensureWorkers(workers int) {
	if len(s.counts) < workers {
		s.counts = make([]paddedCount, workers)
	}
	if len(s.queues) < workers {
		s.queues = make([]flatQueue, workers)
	}
}

// ensureBlock sizes the block queue pair and per-worker writers.
func (s *Scratch) ensureBlock(n, workers, blockSize int) {
	capacity := n + workers*blockSize
	if s.qA == nil || s.qBlockSize != blockSize || s.qA.Cap() < capacity {
		s.qA = NewBlockQueue(capacity, blockSize)
		s.qB = NewBlockQueue(capacity, blockSize)
		s.qBlockSize = blockSize
	} else {
		s.qA.Reset()
		s.qB.Reset()
	}
	if len(s.writers) < workers {
		old := len(s.writers)
		s.writers = append(s.writers, make([]*Writer, workers-old)...)
		for i := old; i < workers; i++ {
			s.writers[i] = &Writer{}
		}
	}
}

// finish assembles the Result from the level loop's tallies: the widths its
// barriers appended, one entry a level reached (a cut-off run's partial level
// included), and the queue entries processed. Nothing here walks the vertices.
func (s *Scratch) finish(processed int64) Result {
	var reached int64
	for _, w := range s.widths {
		reached += w
	}
	// Never negative: an aborted level has claimed vertices nobody got to
	// process. Locked claims put a vertex in one queue, so without an abort
	// the exactly-once variants read 0.
	return Result{
		Levels:     s.levels,
		NumLevels:  len(s.widths),
		Widths:     s.widths,
		Processed:  processed,
		Duplicates: max(processed-reached, 0),
	}
}

// denseShare sets when a block-queue level is dense: its frontier holds at
// least 1/denseShare of the vertices (DESIGN.md §2).
const denseShare = 8

// expandVertex claims v's unvisited neighbours for level lv and pushes them
// into wr over the raw CSR arrays: the one expansion under both orders of a
// block-queue level. It returns the claims that took a vertex off Unvisited,
// each reached vertex's once (DESIGN.md §2): the compare-and-swaps that won,
// or the relaxed swaps that read Unvisited.
func expandVertex(xadj []int64, adj, levels []int32, v, lv int32, relaxed bool, wr *Writer) (claims int64) {
	nb := adj[xadj[v]:xadj[v+1]]
	for j := firstUnvisited(nb, levels); j < len(nb); j += 1 + firstUnvisited(nb[j+1:], levels) {
		u := nb[j]
		if relaxed {
			// Check (the leaf's) then swap: concurrent claimers all push.
			if atomic.SwapInt32(&levels[u], lv) == Unvisited {
				claims++
			}
		} else if atomic.CompareAndSwapInt32(&levels[u], Unvisited, lv) {
			claims++
		} else {
			continue // locked: the compare-and-swap alone decides who pushes
		}
		wr.Push(u)
	}
	return claims
}

// BlockTeam runs layered BFS with the block-accessed queue on an
// OpenMP-style Team (the paper's OpenMP-Block / OpenMP-Block-relaxed).
func (s *Scratch) BlockTeam(ctx context.Context, g *graph.Graph, source int32, team *sched.Team, opts sched.ForOptions, blockSize int, relaxed bool) (Result, error) {
	s.loop.OnTeam(team, opts)
	return s.block(ctx, g, source, blockSize, relaxed)
}

// BlockTBB runs layered BFS with the block-accessed queue on TBB-style
// partitioned ranges (the paper's TBB-Block / TBB-Block-relaxed; the paper
// reports the simple partitioner).
func (s *Scratch) BlockTBB(ctx context.Context, g *graph.Graph, source int32, pool *sched.Pool, part sched.Partitioner, grain, blockSize int, relaxed bool) (Result, error) {
	s.loop.OnTBB(pool, part, grain)
	return s.block(ctx, g, source, blockSize, relaxed)
}

// block is the level loop of the block-queue variants on whatever
// s.loop is bound to: one parallel loop per level, each worker pushing
// the vertices it claims into the next queue through its own Writer. A
// sparse level sweeps the current queue's entries in the order the workers
// wrote them. A dense level, whose frontier |F| holds at least n/denseShare
// vertices, sweeps the level array instead, in ranges of ⌈n/|F|⌉ vertices,
// and expands every vertex at level lv-1: the same number of iterations,
// but each neighbour list read in ascending order. |F| counts the queue's
// entries less the sentinel padding, relaxed duplicates included, plus the
// pushes that overflowed the queue: such a level is always dense (DESIGN.md
// §2), so no sparse level reads a queue that lost entries.
func (s *Scratch) block(ctx context.Context, g *graph.Graph, source int32, blockSize int, relaxed bool) (Result, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	n := g.NumVertices()
	workers := s.loop.Workers()
	s.ensureCommon(n)
	s.ensureWorkers(workers)
	s.ensureBlock(n, workers, blockSize)
	if n == 0 {
		return s.finish(0), nil
	}
	s.xadj, s.adj, s.relaxed = g.Xadj(), g.AdjRaw(), relaxed
	cur, next := s.qA, s.qB
	s.levels[source] = 0
	s.widths = append(s.widths, 1)
	seed := s.writers[0]
	seed.Reset(cur)
	seed.Push(source)
	seed.Flush()
	frontier := 1
	if s.blockBody == nil {
		s.blockBody = func(lo, hi, w int) {
			wr := s.writers[w]
			var count, claims int64
			for _, v := range s.queue[lo:hi] {
				if v != Sentinel {
					claims += expandVertex(s.xadj, s.adj, s.levels, v, s.lv, s.relaxed, wr)
					count++
				}
			}
			s.counts[w].n += count
			s.counts[w].claims += claims
		}
		// Exact: during level lv a claim writes only lv, and only onto a word
		// that read Unvisited, while every lv-1 word was stored before the
		// last barrier. So the sweep expands the level-(lv-1) set, each
		// vertex once, whatever duplicates the queue holds.
		s.denseBody = func(lo, hi, w int) {
			wr, lvls, prev := s.writers[w], s.levels, s.lv-1
			var count, claims int64
			for v := lo * s.span; v < min(hi*s.span, len(lvls)); v++ {
				if atomic.LoadInt32(&lvls[v]) == prev {
					claims += expandVertex(s.xadj, s.adj, lvls, int32(v), s.lv, s.relaxed, wr)
					count++
				}
			}
			s.counts[w].n += count
			s.counts[w].claims += claims
		}
	}

	rec := telemetry.FromContext(ctx)
	var processed int64
	for lv := int32(1); frontier > 0; lv++ {
		queue := cur.Entries()
		dense := frontier*denseShare >= n
		var edges int64
		var levelStart time.Time
		if telemetry.Active(rec) {
			if dense {
				edges = levelEdges(g, s.levels, lv-1)
			} else {
				edges = frontierEdges(g, queue)
			}
			levelStart = telemetry.Now(rec)
		}
		for w := 0; w < workers; w++ {
			s.writers[w].Reset(next)
			s.counts[w] = paddedCount{}
		}
		s.lv = lv
		var err error
		if dense {
			s.span = (n + frontier - 1) / frontier
			err = s.loop.Run(ctx, (n+s.span-1)/s.span, s.denseBody)
		} else {
			s.queue = queue
			err = s.loop.Run(ctx, len(queue), s.blockBody)
		}
		var levelProcessed, claims int64
		pad, over := 0, 0
		for w := 0; w < workers; w++ {
			p, o := s.writers[w].Flush()
			pad, over = pad+p, over+o
			levelProcessed += s.counts[w].n
			claims += s.counts[w].claims
		}
		processed += levelProcessed
		// Level lv's width. The last level claims nothing and gets no entry,
		// but an aborted level keeps one, as the levels 0..lv its chunks
		// may have claimed into are what the partial result spans.
		if claims > 0 || err != nil {
			s.widths = append(s.widths, claims)
		}
		frontier = len(next.Entries()) - pad + over
		if telemetry.Active(rec) {
			sample := levelSample(lv-1, levelProcessed, edges, int64(frontier))
			if dense {
				sample.Phase = "level-dense"
			}
			sample.Duration = telemetry.Since(rec, levelStart)
			rec.Record(sample)
		}
		if err != nil {
			return s.finish(processed), err
		}
		cur, next = next, cur
		next.Reset()
	}
	return s.finish(processed), nil
}
