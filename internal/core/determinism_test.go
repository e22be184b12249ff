package core

import (
	"bytes"
	"runtime"
	"testing"

	"micgraph/internal/mic"
)

// procCounts are the GOMAXPROCS values the engine's output must not depend on:
// one processor (no goroutine starts), the reference box's two, and more
// workers than it has cores.
var procCounts = []int{1, 2, 8}

// TestOutputByteDeterminism: regenerating a simulated figure and
// serializing it — JSON and SVG — must produce byte-identical output on
// every run and at every processor count. This is the output-path contract
// (no map-ordered emission, no wall-clock dependence in the simulator) that
// the engine's index-addressed results keep under concurrency, asserted end
// to end: ranging over a map to fill WriteJSON's series fails it.
func TestOutputByteDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s := sharedSuite(t)
	render := func() ([]byte, []byte) {
		e, err := ByID("fig1a", s, mic.KNF(), mic.HostXeon())
		if err != nil {
			t.Fatal(err)
		}
		var j, svg bytes.Buffer
		if err := WriteJSON(&j, []*Experiment{e}); err != nil {
			t.Fatal(err)
		}
		if err := WriteSVG(&svg, e); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), svg.Bytes()
	}
	j1, s1 := render()
	if len(j1) == 0 || len(s1) == 0 {
		t.Fatal("empty serialized output")
	}
	for _, procs := range procCounts {
		runtime.GOMAXPROCS(procs)
		j2, s2 := render()
		if !bytes.Equal(j1, j2) {
			t.Errorf("GOMAXPROCS %d: WriteJSON output differs between identical simulated runs", procs)
		}
		if !bytes.Equal(s1, s2) {
			t.Errorf("GOMAXPROCS %d: WriteSVG output differs between identical simulated runs", procs)
		}
	}
}
