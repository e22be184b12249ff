package bfs

import (
	"micgraph/internal/graph"
	"micgraph/internal/telemetry"
)

// Per-level telemetry helpers. All of them run only when a Recorder is
// active on the kernel's context (telemetry.Active); the uninstrumented
// path never calls them, so the default runs pay nothing.

// frontierEdges sums the degrees of the real entries of a block-queue
// frontier — the number of edges the level expansion will relax.
func frontierEdges(g *graph.Graph, queue []int32) int64 {
	var edges int64
	for _, v := range queue {
		if v != Sentinel {
			edges += int64(g.Degree(v))
		}
	}
	return edges
}

// levelEdges sums the degrees of the vertices at level depth — the edges a
// dense block-queue level relaxes.
func levelEdges(g *graph.Graph, levels []int32, depth int32) int64 {
	var edges int64
	for v, l := range levels {
		if l == depth {
			edges += int64(g.Degree(int32(v)))
		}
	}
	return edges
}

// levelSample builds the PhaseSample for one completed BFS level: the
// frontier being expanded was at depth `depth`, held `items` vertices whose
// `edges` outgoing edges were relaxed, and claimed `claims` vertices for the
// next level.
func levelSample(depth int32, items, edges, claims int64) telemetry.PhaseSample {
	return telemetry.PhaseSample{
		Kernel: "bfs", Phase: "level", Index: int(depth),
		Items: items, Edges: edges, Claims: claims,
	}
}
