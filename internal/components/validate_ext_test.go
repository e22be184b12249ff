package components_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"micgraph/internal/components"
	"micgraph/internal/kerneltest"
	"micgraph/internal/sched"
)

// Validate accepts the minimum-id labels only: a labelling that describes
// the right partition under other names is rejected too, and the error names
// the first vertex that differs.
func TestComponentsValidateRejects(t *testing.T) {
	g := kerneltest.Disconnected(3, 4) // {0..3} {4..7} {8..11}
	minima := []int32{0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8}
	with := func(edit func([]int32) []int32) []int32 {
		return edit(append([]int32(nil), minima...))
	}
	for _, c := range []struct {
		name   string
		labels []int32
		vertex int // first vertex the error must name; -1 for a length error
	}{
		{"largest-vertex", []int32{3, 3, 3, 3, 7, 7, 7, 7, 11, 11, 11, 11}, 0},
		{"two-components-one-minimum", with(func(l []int32) []int32 { copy(l[4:8], []int32{0, 0, 0, 0}); return l }), 4},
		{"component-split", with(func(l []int32) []int32 { l[2], l[3] = 2, 2; return l }), 2},
		{"label-n", with(func(l []int32) []int32 { l[11] = 12; return l }), 11},
		{"label-negative", with(func(l []int32) []int32 { l[9] = -1; return l }), 9},
		{"short", minima[:11], -1},
	} {
		err := components.Validate(g, c.labels)
		switch {
		case err == nil:
			t.Errorf("%s: accepted %v", c.name, c.labels)
		case c.vertex >= 0 && !strings.Contains(err.Error(), fmt.Sprintf("vertex %d ", c.vertex)):
			t.Errorf("%s: %v does not name vertex %d", c.name, err, c.vertex)
		}
	}
	if err := components.Validate(g, minima); err != nil {
		t.Errorf("minima rejected: %v", err)
	}

	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 8}
	for _, nm := range kerneltest.Corpus() {
		lp, err := components.NewScratch().LabelPropagation(nil, nm.G, team, opts)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := components.NewScratch().PointerJumping(nil, nm.G, team, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]components.Result{"seq": components.Sequential(nm.G), "labelprop": lp, "pointerjump": pj} {
			if err := components.Validate(nm.G, res.Labels); err != nil {
				t.Errorf("%s/%s: %v", nm.Name, name, err)
			}
		}
	}
}

// The first check on a graph computes its minima; eight checks start at
// once on a fresh graph so that computation races, and each must see the
// whole of it.
func TestComponentMinimaConcurrent(t *testing.T) {
	const checkers = 8
	g := kerneltest.Disconnected(16, 64)
	want := components.Sequential(g).Labels
	wrong := append([]int32(nil), want...)
	wrong[len(wrong)-1]++
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < checkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 1 {
				if components.Validate(g, wrong) == nil {
					t.Errorf("checker %d: wrong labels accepted", i)
				}
			} else if err := components.Validate(g, want); err != nil {
				t.Errorf("checker %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
}
