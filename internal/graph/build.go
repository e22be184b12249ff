package graph

import (
	"cmp"
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
//     ascending; then one pass over the block's vertices writes each list
//     straight to the front of the block's stretch, its repeats dropped on the
//     fly and, where the vertex is in a clique, the clique's ids merged in;
//   - the blocks are moved left over the gaps between them, in place.
//
// Besides the edge list, adj and xadj, it allocates a few words a block and
// one radix buffer a worker, as long as the most edge arcs of any block, and
// nothing an arc: no cursor per vertex and no atomic add but the block claims.
//
// A clique member's share of its cliques is never laid out as arcs: the
// cliques that hold a vertex overlap at it, so their ids are one range, and
// finishBlock writes that range, but for the vertex, between the vertex's
// sorted strays — the arcs that arrived edge by edge — below it and those above
// it, dropping the strays inside it. Which worker wrote an arc where depends on
// the worker count; the radix sort orders the arcs by their value alone, and the
// merge leaves the same sorted list whatever its input order, so the graph is
// the same for every worker count.
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

	// The cliques by block, in base order: block b's are cliques[i] for i in
	// mine[first[b]:first[b+1]], and room[b] counts its members' arcs in them.
	slices.SortFunc(cliques, func(x, y clique) int { return cmp.Compare(x.base, y.base) })
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
	// first, worker 0's first of those, then room[b] for its clique ids. cnt
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
		tmp := make([]int32, most)
		for {
			bl := int(cursor.Add(1)) - 1
			if bl >= nb {
				return
			}
			lo := bl << k
			kept[bl] = finishBlock(adj[at[bl]:at[bl+1]], tmp, at[bl+1]-at[bl]-room[bl], idb,
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

// finishBlock finishes the lists of the len(xadj) vertices from lo, which
// take lists. Its first edgeArcs words are their edge arcs in any order, each
// a far end with its source's id within the block packed above bit idb; the
// rest is room for their shares of the cliques cliques[i], i in mine, which
// are in base order. It leaves the lists one after another at the front of
// lists, sorted and deduplicated, sets xadj[l] to where list l begins,
// counted from lists[0], and returns their total length. tmp, at least
// edgeArcs long, is the radix sort's buffer; mine is left reordered.
func finishBlock(lists, tmp []int32, edgeArcs int, idb uint, cliques []clique, mine []int32, lo int, xadj []int64) int {
	nv := len(xadj)
	far := int32(uint32(1)<<idb - 1)

	// The edge arcs by source and then by far end: each source's are a
	// contiguous ascending stretch, its id in the bits above idb.
	arcs := radixSort(lists[:edgeArcs], tmp[:edgeArcs], 0, idb+idBits(nv))

	// No clique: each list is its stretch, a repeat is a word equal to the
	// one before it, and list l begins at the first word of source l kept.
	// No list outgrows the arcs read for it, so arcs may be lists itself.
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

	// With cliques a list outgrows its arcs and would overwrite the next
	// source's before they are read, so they are read from tmp.
	if edgeArcs > 0 && &arcs[0] != &tmp[0] {
		arcs = tmp[:copy(tmp, arcs)]
	}
	// Each list in one pass: the cliques that hold v overlap at v, so their
	// ids are one range [from, to), written but for v itself between the
	// strays below it and those from to on, each repeat dropped; a stray
	// inside the range repeats it. mine[act:next] are the cliques begun by
	// v, less those found ended, kept in base order.
	out, i, act, next := 0, 0, 0, 0
	for l := range nv {
		v := int32(lo + l)
		for next < len(mine) && cliques[mine[next]].base <= v {
			next++
		}
		from, to, keep := v, v+1, next
		for t := next - 1; t >= act; t-- {
			if c := cliques[mine[t]]; c.base+c.size > v {
				keep--
				mine[keep] = mine[t]
				from, to = min(from, c.base), max(to, c.base+c.size)
			}
		}
		act = keep
		xadj[l] = int64(out)
		src, prev := uint32(l), int32(-1)
		for ; i < len(arcs) && uint32(arcs[i])>>idb == src && arcs[i]&far < from; i++ {
			if a := arcs[i] & far; a != prev {
				lists[out] = a
				out++
				prev = a
			}
		}
		run := lists[out : out+int(to-from)-1]
		for j := range run[:v-from] {
			run[j] = from + int32(j)
		}
		for j := int(v - from); j < len(run); j++ {
			run[j] = from + int32(j) + 1
		}
		out += len(run)
		for ; i < len(arcs) && uint32(arcs[i])>>idb == src; i++ {
			if a := arcs[i] & far; a >= to && a != prev {
				lists[out] = a
				out++
				prev = a
			}
		}
	}
	return out
}

// radixBits is the widest digit radixSort takes: a histogram of 2^11 counters
// is 16 KB, which stays in L1 beside the words it counts.
const radixBits = 11

// radixSort sorts a stably by bits [lo, hi) of each word, taken as unsigned,
// through tmp, which is at least as long, and returns whichever of the two
// holds the sorted words: a least-significant-digit radix sort
// of as few passes as digits of at most radixBits bits allow, the digits as
// even as they divide. A pass counts its digit in one histogram on the stack
// and moves every word to its digit's next slot; a pass whose digit is the same
// in every word moves nothing and is skipped.
func radixSort(a, tmp []int32, lo, hi uint) []int32 {
	if len(a) < 2 || hi <= lo {
		return a
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
	return src
}
