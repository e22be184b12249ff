package graph

import "fmt"

// Levels runs a sequential breadth-first search from source and returns the
// level of every vertex (-1 for unreachable vertices) and the number of
// levels, i.e. 1 + the eccentricity of source within its component.
//
// This is Algorithm 6 of the paper inside the graph package: the producer
// of the "#Level" column of Table I (where the paper uses source |V|/2) and
// the level structure behind the reorderings and the simulator's BFS
// traces. The parallel BFS variants are validated against bfs.Sequential,
// not against this.
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

// CompareLabelings checks that two component labelings describe the same
// partition of the vertex set: there must be a bijection between the label
// values. Returns the first disagreement found.
func CompareLabelings(want, got []int32) error {
	if len(want) != len(got) {
		return fmt.Errorf("graph: labelings have different lengths %d vs %d", len(want), len(got))
	}
	fwd := make(map[int32]int32)
	rev := make(map[int32]int32)
	for v := range want {
		if w, ok := fwd[want[v]]; ok {
			if w != got[v] {
				return fmt.Errorf("graph: vertex %d: label %d maps to both %d and %d",
					v, want[v], w, got[v])
			}
		} else {
			fwd[want[v]] = got[v]
		}
		if w, ok := rev[got[v]]; ok {
			if w != want[v] {
				return fmt.Errorf("graph: vertex %d: label %d maps back to both %d and %d",
					v, got[v], w, want[v])
			}
		} else {
			rev[got[v]] = want[v]
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
