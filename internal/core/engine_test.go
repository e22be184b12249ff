package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"micgraph/internal/mic"
)

// TestSuiteConcurrent runs table1, fig2 and fig4c from four goroutines at
// once, each on its own WithHarness copy of one fresh suite (and so with a
// team of its own): the copies share what the suite derives (shuffled
// graphs, level structures, color counts), every entry is built once, and
// all four read the same figures. Run under -race in CI.
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
			exps := RunMany([]string{"table1", "fig2", "fig4c"}, s.WithHarness(&Harness{}), mic.KNF(), mic.HostXeon())
			if err := WriteJSON(&out[i], exps); err != nil || len(exps[0].Errors)+len(exps[1].Errors)+len(exps[2].Errors) > 0 {
				t.Error(err, exps[0].Errors, exps[1].Errors, exps[2].Errors)
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
	if got := int(s.derived.colorings.Load()); got != len(s.Graphs) {
		t.Errorf("%d greedy colorings run by four concurrent sweeps, want one per graph (%d)", got, len(s.Graphs))
	}
	for i, sh := range s.Shuffled() {
		if sh != s.WithHarness(nil).shuffledGraph(i) {
			t.Errorf("graph %d: WithHarness copies hold different shuffled graphs", i)
		}
	}
}

// allBytesCeiling is what one All on the scale-8 suite may allocate once the
// suite has what it derives: 44.5 MB since Table I's colorings are kept
// (44.7 MB when every pass colored the seven graphs again; 82.7 MB when
// fig1a–c and fig3a–c built their own traces), plus 10 %. A reading that
// does not depend on the box: it moves when a trace set, a level structure
// or a coloring is built twice, or a cell allocates per item again.
const allBytesCeiling = 48_900_000

// allTraceSets is the number of trace keys All reads: coloring in natural and
// in shuffled order, the irregular kernel at each of four iteration counts,
// and BFS at block 32 on the MIC and on the host.
const allTraceSets = 8

// TestAllWorkGate pins the work of a pass, not its time: All on a fresh suite
// walks every graph once for its levels (one level structure each, whatever
// the figures, the table and the model curves ask for) and once for Table
// I's greedy coloring, and builds one trace set per key; a second All walks
// no graph (no level structure, no coloring), builds the same sets again and
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
	if got := int(s.derived.colorings.Load()); got != len(s.Graphs) {
		t.Errorf("All ran %d greedy colorings, want one per graph (%d)", got, len(s.Graphs))
	}
	first := int(s.derived.traceSets.Load())
	if first != allTraceSets {
		t.Errorf("All built %d trace sets, want one per trace key (%d)", first, allTraceSets)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	All(s, knf, host)
	runtime.ReadMemStats(&m1)
	if got := int(s.derived.levelsBuilt.Load()); got != len(s.Graphs) {
		t.Errorf("a second All built %d more level structures, want none", got-len(s.Graphs))
	}
	if got := int(s.derived.colorings.Load()); got != len(s.Graphs) {
		t.Errorf("a second All ran %d more greedy colorings, want none", got-len(s.Graphs))
	}
	if got := int(s.derived.traceSets.Load()) - first; got != allTraceSets {
		t.Errorf("a second All built %d trace sets, want %d", got, allTraceSets)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > allBytesCeiling {
		t.Errorf("All allocated %d bytes, ceiling %d", got, allBytesCeiling)
	} else {
		t.Logf("All allocated %d bytes (ceiling %d)", got, allBytesCeiling)
	}
}
