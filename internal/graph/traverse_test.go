package graph

import (
	"testing"
	"testing/quick"
)

func TestLevelsPath(t *testing.T) {
	g := path(5)
	levels, nl := g.Levels(0)
	if nl != 5 {
		t.Errorf("path(5) from 0 has %d levels, want 5", nl)
	}
	for v, l := range levels {
		if int(l) != v {
			t.Errorf("level[%d] = %d, want %d", v, l, v)
		}
	}
	_, nl = g.Levels(2)
	if nl != 3 {
		t.Errorf("path(5) from middle has %d levels, want 3", nl)
	}
}

func TestLevelsDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1) // component {0,1}; 2,3 isolated
	g := b.Build()
	levels, nl := g.Levels(0)
	if nl != 2 {
		t.Errorf("levels = %d, want 2", nl)
	}
	if levels[2] != -1 || levels[3] != -1 {
		t.Errorf("unreachable vertices have levels %d,%d, want -1,-1", levels[2], levels[3])
	}
}

func TestLevelsComplete(t *testing.T) {
	g := complete(6)
	levels, nl := g.Levels(3)
	if nl != 2 {
		t.Errorf("K6 has %d levels, want 2", nl)
	}
	for v, l := range levels {
		want := int32(1)
		if v == 3 {
			want = 0
		}
		if l != want {
			t.Errorf("level[%d] = %d, want %d", v, l, want)
		}
	}
}

// levelsAreShortestPaths is the fundamental BFS property: level[v] equals
// the shortest-path distance, checked by Bellman-Ford-style relaxation.
func levelsAreShortestPaths(g *Graph, source int32, levels []int32) bool {
	if levels[source] != 0 {
		return false
	}
	for v := 0; v < g.NumVertices(); v++ {
		lv := levels[v]
		for _, w := range g.Adj(int32(v)) {
			lw := levels[w]
			switch {
			case lv == -1 && lw != -1, lw == -1 && lv != -1:
				return false // adjacent vertices must be both reachable or both not
			case lv != -1 && (lw > lv+1 || lv > lw+1):
				return false // adjacent levels differ by at most 1
			}
		}
	}
	// Every reachable non-source vertex needs a neighbor one level closer.
	for v := 0; v < g.NumVertices(); v++ {
		if levels[v] <= 0 {
			continue
		}
		ok := false
		for _, w := range g.Adj(int32(v)) {
			if levels[w] == levels[v]-1 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func TestLevelsAreShortestPathsProperty(t *testing.T) {
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%100) + 1
		m := int(mRaw % 400)
		g := randomGraph(seed, n, m)
		src := int32(int(seed) % n)
		if src < 0 {
			src = -src
		}
		levels, _ := g.Levels(src)
		return levelsAreShortestPaths(g, src, levels)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.Build()
	comp, k := g.ConnectedComponents()
	if k != 4 {
		t.Fatalf("components = %d, want 4", k)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("vertices 0,1,2 not in the same component")
	}
	if comp[3] != comp[4] {
		t.Error("vertices 3,4 not in the same component")
	}
	if comp[0] == comp[3] || comp[5] == comp[6] {
		t.Error("distinct components merged")
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(10)
	// Component A: 0-1-2-3-4 (5 vertices), component B: 5-6 (2), rest isolated.
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	b.AddEdge(5, 6)
	g := b.Build()
	lc, remap := g.LargestComponent()
	if lc.NumVertices() != 5 || lc.NumEdges() != 4 {
		t.Errorf("largest component %s, want V=5 E=4", lc)
	}
	if err := lc.Validate(); err != nil {
		t.Error(err)
	}
	for v := 0; v < 5; v++ {
		if remap[v] == -1 {
			t.Errorf("vertex %d dropped from largest component", v)
		}
	}
	for v := 5; v < 10; v++ {
		if remap[v] != -1 {
			t.Errorf("vertex %d kept, should be dropped", v)
		}
	}

	// Connected graph returns itself.
	conn := path(4)
	lc2, _ := conn.LargestComponent()
	if lc2 != conn {
		t.Error("connected graph did not return itself")
	}
}

func TestEccentricityLowerBound(t *testing.T) {
	g := path(100)
	if d := g.EccentricityLowerBound(50, 3); d != 99 {
		t.Errorf("double sweep on path(100) = %d, want 99", d)
	}
	k := complete(5)
	if d := k.EccentricityLowerBound(0, 2); d != 1 {
		t.Errorf("double sweep on K5 = %d, want 1", d)
	}
}
