package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"micgraph/internal/mic"
)

// TestSuiteConcurrent runs fig2 and fig4c from four goroutines at once, each
// on its own WithHarness copy of one fresh suite (and so with a team of its
// own): the copies share what the
// suite derives (shuffled graphs, level structures), every entry is built
// once, and all four read the same figures. Run under -race in CI.
func TestSuiteConcurrent(t *testing.T) {
	s, err := NewSuite(8)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bytes.Buffer, 4)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exps := RunMany([]string{"fig2", "fig4c"}, s.WithHarness(&Harness{}), mic.KNF(), mic.HostXeon())
			if err := WriteJSON(&out[i], exps); err != nil || len(exps[0].Errors)+len(exps[1].Errors) > 0 {
				t.Error(err, exps[0].Errors, exps[1].Errors)
			}
		}()
	}
	wg.Wait()
	for i := range out {
		if out[i].Len() == 0 || !bytes.Equal(out[i].Bytes(), out[0].Bytes()) {
			t.Errorf("goroutine %d read different figures than goroutine 0", i)
		}
	}
	if got := int(s.derived.levelsBuilt.Load()); got != len(s.Graphs) {
		t.Errorf("%d level structures built by four concurrent sweeps, want one per graph (%d)", got, len(s.Graphs))
	}
	for i, sh := range s.Shuffled() {
		if sh != s.WithHarness(nil).shuffledGraph(i) {
			t.Errorf("graph %d: WithHarness copies hold different shuffled graphs", i)
		}
	}
}

// allBytesCeiling is what one All on the scale-8 suite may allocate once the
// suite has what it derives: 83.0 MB as of the PR that introduced the gate
// (89.5 MB before it), plus 10 %. A reading that does not depend on the box:
// it moves when a trace or a level structure is built twice, or a cell
// allocates per item again.
const allBytesCeiling = 91_300_000

// TestAllWorkGate pins the work of a pass, not its time: All on a fresh suite
// walks every graph once (one level structure each, whatever the figures,
// the table and the model curves ask for), a second All walks none and
// allocates under allBytesCeiling.
func TestAllWorkGate(t *testing.T) {
	s, err := NewSuite(8)
	if err != nil {
		t.Fatal(err)
	}
	knf, host := mic.KNF(), mic.HostXeon()
	All(s, knf, host)
	if got := int(s.derived.levelsBuilt.Load()); got != len(s.Graphs) {
		t.Errorf("All built %d level structures, want one per graph (%d)", got, len(s.Graphs))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	All(s, knf, host)
	runtime.ReadMemStats(&m1)
	if got := int(s.derived.levelsBuilt.Load()); got != len(s.Graphs) {
		t.Errorf("a second All built %d more level structures, want none", got-len(s.Graphs))
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > allBytesCeiling {
		t.Errorf("All allocated %d bytes, ceiling %d", got, allBytesCeiling)
	} else {
		t.Logf("All allocated %d bytes (ceiling %d)", got, allBytesCeiling)
	}
}
