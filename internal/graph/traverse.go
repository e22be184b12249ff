package graph

import "fmt"

// Levels runs a sequential breadth-first search from source and returns the
// level of every vertex (-1 for unreachable vertices) and the number of
// levels, i.e. 1 + the eccentricity of source within its component.
//
// This is Algorithm 6 of the paper inside the graph package, kept as read:
// the producer of the "#Level" column of Table I (where the paper uses
// source |V|/2), the level structure behind the reorderings and the
// simulator's BFS traces, and the oracle every BFS answer is validated
// against (bfs.Validate, kerneltest.CheckBFS), the twin bfs.Sequential
// included.
func (g *Graph) Levels(source int32) ([]int32, int) {
	n := g.NumVertices()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	if n == 0 {
		return levels, 0
	}
	queue := make([]int32, 0, n)
	levels[source] = 0
	queue = append(queue, source)
	maxLevel := int32(0)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		lv := levels[v]
		for _, w := range g.Adj(v) {
			if levels[w] == -1 {
				levels[w] = lv + 1
				if lv+1 > maxLevel {
					maxLevel = lv + 1
				}
				queue = append(queue, w)
			}
		}
	}
	return levels, int(maxLevel) + 1
}

// ConnectedComponents labels each vertex with a component id in [0, k) and
// returns the labels and the number of components k. Component ids are
// assigned in order of their smallest vertex.
func (g *Graph) ConnectedComponents() ([]int32, int) {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var k int32
	stack := make([]int32, 0, 1024)
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = k
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Adj(v) {
				if comp[w] == -1 {
					comp[w] = k
					stack = append(stack, w)
				}
			}
		}
		k++
	}
	return comp, int(k)
}

// CheckComponentLabels checks that labels[v] is the smallest vertex of v's
// component for every vertex v, and names the first vertex that differs.
// The canonical labels are computed by ConnectedComponents on the first call
// and kept, so every later call is one allocation-free pass over labels.
func (g *Graph) CheckComponentLabels(labels []int32) error {
	g.minimaOnce.Do(func() {
		comp, k := g.ConnectedComponents()
		// Ids follow the order of each component's smallest vertex, so the
		// first vertex met with the next id is that component's minimum.
		first := make([]int32, 0, k)
		for v, c := range comp {
			if int(c) == len(first) {
				first = append(first, int32(v))
			}
			comp[v] = first[c]
		}
		g.minima = comp
	})
	if len(labels) != len(g.minima) {
		return fmt.Errorf("graph: %d component labels for %d vertices", len(labels), len(g.minima))
	}
	for v, l := range labels {
		if l != g.minima[v] {
			return fmt.Errorf("graph: vertex %d labelled %d, its component's smallest vertex is %d", v, l, g.minima[v])
		}
	}
	return nil
}

// LargestComponent returns the subgraph induced by the largest connected
// component, together with the mapping old vertex id -> new vertex id
// (-1 for dropped vertices). If the graph is connected it returns g itself
// and an identity mapping.
func (g *Graph) LargestComponent() (*Graph, []int32) {
	n := g.NumVertices()
	comp, k := g.ConnectedComponents()
	if k <= 1 {
		return g, IdentityPermutation(n)
	}
	sizes := make([]int64, k)
	for _, c := range comp {
		sizes[c]++
	}
	best := int32(0)
	for c := 1; c < k; c++ {
		if sizes[c] > sizes[best] {
			best = int32(c)
		}
	}
	remap := make([]int32, n)
	var nn int32
	for v := 0; v < n; v++ {
		if comp[v] == best {
			remap[v] = nn
			nn++
		} else {
			remap[v] = -1
		}
	}
	b := NewBuilder(int(nn))
	for v := 0; v < n; v++ {
		if remap[v] < 0 {
			continue
		}
		for _, w := range g.Adj(int32(v)) {
			if int32(v) < w { // each edge once
				b.AddEdge(remap[v], remap[w])
			}
		}
	}
	return b.Build(), remap
}
