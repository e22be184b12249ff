package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Edge is an undirected edge between two vertices. The orientation is
// irrelevant: {U,V} and {V,U} denote the same edge.
type Edge struct {
	U, V int32
}

// FromEdges builds a simple undirected CSR graph on n vertices from an
// arbitrary edge list. Self loops are dropped, parallel edges are
// deduplicated, and the result is symmetric with sorted adjacency lists.
// It returns an error if n < 0 or any endpoint is out of [0, n).
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build(), nil
}

// MustFromEdges is FromEdges, panicking on error. Intended for tests and
// generators whose inputs are correct by construction.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Builder accumulates edges and produces a CSR graph. It is cheaper than
// FromEdges for generators that know approximately how many edges they will
// add, and it tolerates duplicate and self-loop insertions (they are
// silently discarded at Build time). Builder is not safe for concurrent use.
type Builder struct {
	n       int
	us      []int32
	vs      []int32
	cliques []clique
	built   bool
}

// clique is the complete subgraph on the ids [base, base+size).
type clique struct{ base, size int32 }

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// Grow pre-allocates capacity for m additional edges.
func (b *Builder) Grow(m int) {
	b.us = slices.Grow(b.us, m)
	b.vs = slices.Grow(b.vs, m)
}

// AddEdge records the undirected edge {u,v}. Out-of-range endpoints panic;
// self loops and duplicates are tolerated and removed at Build time.
func (b *Builder) AddEdge(u, v int32) {
	b.check(u, v)
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
}

// AddEdges records m edges at once: fill is handed the Builder's own next m
// slots, us[i] and vs[i] the ends of one edge, to write in any order and from
// as many goroutines as it likes before it returns; the endpoints are then
// checked as AddEdge checks them. A generator of millions of edges pays
// neither a call per edge nor a second copy of the list.
func (b *Builder) AddEdges(m int, fill func(us, vs []int32)) {
	b.Grow(m)
	k := len(b.us)
	b.us, b.vs = b.us[:k+m], b.vs[:k+m]
	fill(b.us[k:], b.vs[k:])
	for i := k; i < k+m; i++ {
		b.check(b.us[i], b.vs[i])
	}
}

// AddClique records the complete subgraph on the size consecutive ids from
// base, all size·(size−1)/2 edges of it, as one entry: Build knows where each
// of those arcs sorts and writes it there (see Build), where the same edges
// through AddEdge would be counted, bucketed and sorted one by one. A range
// that leaves [0, n) panics like an out-of-range edge; cliques may overlap
// each other and edges added any other way.
func (b *Builder) AddClique(base int32, size int) {
	if base < 0 || size < 0 || int(base)+size > b.n {
		panic(fmt.Sprintf("graph: clique [%d,%d+%d) out of range [0,%d)", base, base, size, b.n))
	}
	if size >= 2 {
		b.cliques = append(b.cliques, clique{base, int32(size)})
	}
}

func (b *Builder) check(u, v int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
}

// blockArcs is about how many arcs a block of Build holds: few enough (256 KB
// of lists) to stay in L2 while its owner lays them out, sorts and dedups
// them.
const blockArcs = 1 << 16

// blockShift returns k, the log2 of Build's block size for n vertices and
// about arcs arcs: a block of 2^k consecutive ids holds about blockArcs arcs
// at the average degree. k is at most 16, which bounds a worker's scratch at
// three words a vertex of a block, and at most 32 − idBits(n), so that a
// source's id within its block packs above a vertex id in one 32-bit word.
func blockShift(n, arcs int) uint {
	k := 16
	if arcs > 0 {
		k = bits.Len(uint(blockArcs*n/arcs)) - 1
	}
	return uint(max(0, min(k, 16, 32-int(idBits(n)))))
}

// idBits is how many bits a vertex id of a graph on n vertices takes.
func idBits(n int) uint { return uint(bits.Len(uint(max(n-1, 0)))) }

// Build produces the CSR graph. The Builder must not be reused afterwards.
//
// The construction partitions the arcs by source block and then finishes each
// block's lists while they sit in cache — GBBS's semisort-then-local-work
// (Dhulipala, Blelloch & Shun), with counting passes and no comparison sort on
// the arcs that arrived edge by edge. The vertices are cut into blocks of 2^k
// consecutive ids (blockShift), and the edges into one contiguous slice per
// worker (one worker for up to edgeChunk edges of construction, and at least
// that many edges a worker):
//
//   - count: each worker counts both ends of its slice's edges into a
//     counter per block of its own, dropping self loops;
//   - one prefix sum over (block, worker) gives every pair a range, laid out in
//     block order, so that block b's ranges open the stretch of adj its lists
//     will take, with room behind them for its clique arcs;
//   - scatter: each worker writes both directions of its edges into its own
//     ranges, sequentially and without atomics: the far end, with the source's
//     id within its block packed above it (blockShift leaves it the bits);
//   - per block, claimed off one cursor (finishBlock): the edge arcs radix-sorted
//     on the whole packed word, which leaves every source's arcs contiguous and
//     ascending; where the block has no clique, one scan drops the repeats,
//     clears the source ids and reads the offsets off them; where it has, the
//     arcs are moved behind the room for their lists' clique runs, the runs
//     written, and every list merged, deduplicated and moved left over the gaps
//     inside the block;
//   - the blocks are moved left over the gaps between them, in place.
//
// Besides the edge list, adj and xadj, it allocates a few words a block and
// one radix buffer a worker, as long as the most edge arcs of any block, and
// nothing an arc: no cursor per vertex and no atomic add but the block claims.
//
// A clique member's share of its clique is the ascending run of the other
// members' ids, and it is written first in the member's list, so that the
// list is a run with its strays — the arcs that arrived edge by edge, in
// order — behind it: sortRunAndStrays then merges them into the run. The run of
// a second clique on the same vertex follows the first and is simply more
// strays. Which worker wrote an arc where depends on the worker count; the
// radix sort orders the arcs by their value alone, and the merge leaves the
// same sorted list whatever its input order, so the graph is the same for every
// worker count.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Builder.Build called twice")
	}
	b.built = true
	n, us, vs, cliques := b.n, b.us, b.vs, b.cliques
	b.us, b.vs, b.cliques = nil, nil, nil

	cliqueArcs := 0
	for _, c := range cliques {
		cliqueArcs += int(c.size) * int(c.size-1)
	}
	size := len(us) + cliqueArcs/2 // of the whole construction, in edges
	k := blockShift(n, 2*len(us)+cliqueArcs)
	nb := (n + 1<<k - 1) >> k
	p := max(1, min(workers(size), len(us)/edgeChunk))
	part := func(w int) (lo, hi int) { return w * len(us) / p, (w + 1) * len(us) / p }

	// Count: worker w's arcs from block b are cnt[w*nb+b].
	cnt := make([]int, p*nb)
	parallel(p, func(w int) {
		c := cnt[w*nb : (w+1)*nb]
		lo, hi := part(w)
		for i := lo; i < hi; i++ {
			if u, v := us[i], vs[i]; u != v {
				c[u>>k]++
				c[v>>k]++
			}
		}
	})

	// The cliques by block: block b's are cliques[i] for i in
	// mine[first[b]:first[b+1]], and room[b] counts its members' arcs in them.
	first := make([]int, nb+2)
	room := make([]int, nb)
	for _, c := range cliques {
		lo, hi := int(c.base), int(c.base+c.size)
		for bl := lo >> k; bl<<k < hi; bl++ {
			first[bl+2]++
			room[bl] += (min(hi, (bl+1)<<k) - max(lo, bl<<k)) * int(c.size-1)
		}
	}
	for bl := 1; bl <= nb; bl++ {
		first[bl+1] += first[bl]
	}
	mine := make([]int32, first[nb+1])
	for i, c := range cliques {
		for bl := int(c.base) >> k; bl<<k < int(c.base+c.size); bl++ {
			mine[first[bl+1]] = int32(i)
			first[bl+1]++
		}
	}

	// Offsets: block b's lists will take adj[at[b]:at[b+1]], its edge arcs
	// first, worker 0's first of those, then room[b] for its clique runs. cnt
	// becomes each (worker, block) pair's cursor.
	at := make([]int, nb+1)
	most := 0 // edge arcs of the fullest block, the length of a radix buffer
	for bl := 0; bl < nb; bl++ {
		j := at[bl]
		for w := 0; w < p; w++ {
			j, cnt[w*nb+bl] = j+cnt[w*nb+bl], j
		}
		most = max(most, j-at[bl])
		at[bl+1] = j + room[bl]
	}

	// Scatter: both directions of every edge, each worker into its own ranges,
	// an arc's source id within its block above its far end. It is the last
	// to read us and vs, whose 8 bytes an edge the collector may have back
	// from here on.
	adj := make([]int32, at[nb])
	idb, mask := idBits(n), int32(1)<<k-1
	parallel(p, func(w int) {
		next := cnt[w*nb : (w+1)*nb]
		lo, hi := part(w)
		for i := lo; i < hi; i++ {
			u, v := us[i], vs[i]
			if u == v {
				continue
			}
			bu, bv := u>>k, v>>k
			adj[next[bu]] = int32(uint32(u&mask)<<idb | uint32(v))
			next[bu]++
			adj[next[bv]] = int32(uint32(v&mask)<<idb | uint32(u))
			next[bv]++
		}
	})

	// Per block: kept[b] is how long its lists are once finished, at the
	// front of adj[at[b]:at[b+1]].
	xadj := make([]int64, n+1)
	kept := make([]int, nb)
	var cursor atomic.Int64
	parallel(min(workers(size), nb), func(int) {
		s := blockScratch{tmp: make([]int32, most)}
		for {
			bl := int(cursor.Add(1)) - 1
			if bl >= nb {
				return
			}
			lo := bl << k
			kept[bl] = s.finishBlock(adj[at[bl]:at[bl+1]], at[bl+1]-at[bl]-room[bl], idb,
				cliques, mine[first[bl]:first[bl+1]], lo, xadj[lo:min(lo+1<<k, n)])
		}
	})

	// The blocks left over the gaps, in place; xadj[v] counted from its
	// block's start until now.
	out := 0
	for bl := 0; bl < nb; bl++ {
		copy(adj[out:], adj[at[bl]:at[bl]+kept[bl]])
		for v := bl << k; v < min((bl+1)<<k, n); v++ {
			xadj[v] += int64(out)
		}
		out += kept[bl]
	}
	xadj[n] = int64(out)
	return &Graph{xadj: xadj, adj: adj[:out:out]}
}

// blockScratch is what one worker of Build's per-block pass keeps from block to
// block: the radix sort's buffer and the strays' buffer.
type blockScratch struct {
	tmp []int32
	buf [strayBuf]int32
}

// finishBlock finishes the lists of the len(xadj) vertices from lo, which
// take lists. Its first edgeArcs words are their edge arcs in any order, each
// a far end with its source's id within the block packed above bit idb; the
// rest is room for their shares of the cliques cliques[i], i in mine. It
// leaves the lists one after another at the front of lists, sorted and
// deduplicated, sets xadj[l] to where list l begins, counted from lists[0],
// and returns their total length.
func (s *blockScratch) finishBlock(lists []int32, edgeArcs int, idb uint, cliques []clique, mine []int32, lo int, xadj []int64) int {
	nv := len(xadj)
	far := int32(uint32(1)<<idb - 1)

	// The edge arcs by source and then by far end: each source's are a
	// contiguous ascending stretch, its id in the bits above idb.
	arcs := lists[:edgeArcs]
	radixSort(arcs, s.tmp[:edgeArcs], 0, idb+idBits(nv))

	// No clique: each list is its stretch, a repeat is a word equal to the
	// one before it, and list l begins at the first word of source l kept.
	if len(lists) == edgeArcs {
		out, l := 0, 0
		var prev int32
		for i, a := range arcs {
			if i > 0 && a == prev {
				continue
			}
			prev = a
			for src := int(uint32(a) >> idb); l <= src; l++ {
				xadj[l] = int64(out)
			}
			lists[out] = a & far
			out++
		}
		for ; l < nv; l++ {
			xadj[l] = int64(out)
		}
		return out
	}

	// Room for the clique runs. xadj[l] first counts vertex l's clique share;
	// then, from the last vertex down, its edge arcs — the stretch of source l
	// at the end of those not yet moved — move right behind room for that
	// share, and xadj[l] becomes where the room ends.
	clear(xadj)
	for _, ci := range mine {
		c := cliques[ci]
		for v := max(int(c.base), lo); v < min(int(c.base+c.size), lo+nv); v++ {
			xadj[v-lo] += int64(c.size - 1)
		}
	}
	end, i := len(lists), edgeArcs
	for l := nv - 1; l >= 0; l-- {
		j := i
		for j > 0 && int(uint32(arcs[j-1])>>idb) == l {
			j--
		}
		strays := lists[end-(i-j) : end]
		copy(strays, arcs[j:i])
		for t := range strays {
			strays[t] &= far
		}
		share := int(xadj[l])
		xadj[l] = int64(end - len(strays))
		end -= len(strays) + share
		i = j
	}

	// The runs, written down from the end of each room, the last clique's
	// first, so that the first clique's run opens the list; xadj[l] ends where
	// list l begins, and list l ends where list l+1 does.
	for ci := len(mine) - 1; ci >= 0; ci-- {
		c := cliques[mine[ci]]
		base, size := int(c.base), int(c.size)
		for v := max(base, lo); v < min(base+size, lo+nv); v++ {
			end := int(xadj[v-lo])
			run := lists[end-(size-1) : end] // the others' ids, ascending
			xadj[v-lo] = int64(end - (size - 1))
			for i := range run[:v-base] {
				run[i] = int32(base + i)
			}
			for i := v - base; i < len(run); i++ {
				run[i] = int32(base + i + 1)
			}
		}
	}

	// Merge and dedup each list, and move it left over the gaps before it.
	out := 0
	for l := range nv {
		end := len(lists)
		if l+1 < nv {
			end = int(xadj[l+1])
		}
		list := lists[xadj[l]:end]
		sortRunAndStrays(list, s.buf[:])
		xadj[l] = int64(out)
		out += copy(lists[out:], slices.Compact(list))
	}
	return out
}

// strayBuf is how many strays sortRunAndStrays will merge, the size of the
// buffer a worker of Build's per-block pass keeps for them.
const strayBuf = 256

// sortRunAndStrays sorts list, which Build has laid out as an ascending run
// with strays behind it: it finds the run as the longest ascending prefix,
// sorts the strays, moves them to buf and merges them into the run from the
// back. Strays that outnumber the run or buf (a hub's, as a rule) are not worth
// telling apart: the list is sorted whole.
func sortRunAndStrays(list, buf []int32) {
	k := 1
	for k < len(list) && list[k-1] <= list[k] {
		k++
	}
	if k >= len(list) {
		return
	}
	strays := list[k:]
	if len(strays) > min(k, len(buf)) {
		slices.Sort(list)
		return
	}
	slices.Sort(strays)
	strays = buf[:copy(buf, strays)]
	i, j := k-1, len(strays)-1
	for out := len(list) - 1; j >= 0; out-- {
		if i >= 0 && list[i] > strays[j] {
			list[out] = list[i]
			i--
		} else {
			list[out] = strays[j]
			j--
		}
	}
}

// radixBits is the widest digit radixSort takes: a histogram of 2^11 counters
// is 16 KB, which stays in L1 beside the words it counts.
const radixBits = 11

// radixSort sorts a stably by bits [lo, hi) of each word, taken as unsigned,
// through tmp, which is at least as long: a least-significant-digit radix sort
// of as few passes as digits of at most radixBits bits allow, the digits as
// even as they divide. A pass counts its digit in one histogram on the stack
// and moves every word to its digit's next slot; a pass whose digit is the same
// in every word moves nothing and is skipped.
func radixSort(a, tmp []int32, lo, hi uint) {
	if len(a) < 2 || hi <= lo {
		return
	}
	passes := (hi - lo + radixBits - 1) / radixBits
	width := (hi - lo + passes - 1) / passes
	var count [1 << radixBits]int
	src, dst := a, tmp[:len(a)]
	for shift := lo; shift < hi; shift += width {
		mask := uint32(1)<<min(width, hi-shift) - 1
		c := count[:mask+1]
		clear(c)
		for _, x := range src {
			c[uint32(x)>>shift&mask]++
		}
		if c[uint32(src[0])>>shift&mask] == len(src) {
			continue
		}
		sum := 0
		for d, k := range c {
			c[d], sum = sum, sum+k
		}
		for _, x := range src {
			d := uint32(x) >> shift & mask
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
