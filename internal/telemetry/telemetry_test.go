package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.Inc(0, Steals)
	c.Add(3, ChunksClaimed, 42)
	if got := c.Get(0, Steals); got != 0 {
		t.Errorf("nil Get = %d, want 0", got)
	}
	if got := c.Total(ChunksClaimed); got != 0 {
		t.Errorf("nil Total = %d, want 0", got)
	}
	if got := c.Workers(); got != 0 {
		t.Errorf("nil Workers = %d, want 0", got)
	}
	if snap := c.Snapshot(); snap.Workers != 0 || len(snap.PerWorker) != 0 {
		t.Errorf("nil Snapshot = %+v, want zero", snap)
	}
}

// TestCountersHammer drives every counter kind from every worker
// concurrently and checks the totals are exact. Run under -race this also
// proves the increments are data-race free.
func TestCountersHammer(t *testing.T) {
	const workers = 8
	const perWorker = 10000
	c := NewCounters(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for k := Kind(0); k < NumKinds; k++ {
					c.Inc(w, k)
				}
			}
			c.Add(w, Steals, 5)
		}(w)
	}
	wg.Wait()

	for k := Kind(0); k < NumKinds; k++ {
		want := int64(workers * perWorker)
		if k == Steals {
			want += workers * 5
		}
		if got := c.Total(k); got != want {
			t.Errorf("Total(%v) = %d, want %d", k, got, want)
		}
	}
	snap := c.Snapshot()
	if snap.Workers != workers || len(snap.PerWorker) != workers {
		t.Fatalf("snapshot workers = %d/%d, want %d", snap.Workers, len(snap.PerWorker), workers)
	}
	if snap.Totals.Steals != int64(workers*perWorker+workers*5) {
		t.Errorf("snapshot steals = %d", snap.Totals.Steals)
	}
	if snap.PerWorker[0].ChunksClaimed != perWorker {
		t.Errorf("per-worker chunks = %d, want %d", snap.PerWorker[0].ChunksClaimed, perWorker)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		ChunksClaimed:   "chunks_claimed",
		TasksSpawned:    "tasks_spawned",
		Steals:          "steals",
		StealFails:      "steal_failures",
		RangeSplits:     "range_splits",
		PanicsContained: "panics_contained",
		LoopStartLagNS:  "loop_start_lag_ns",
		LoopBusyNS:      "loop_busy_ns",
	}
	if len(want) != int(NumKinds) {
		t.Errorf("%d kinds named here, NumKinds = %d", len(want), NumKinds)
	}
	// Every kind reaches the snapshot under its own name: a kind added
	// without its CounterSet field or set case reads 0 or is missing here.
	c := NewCounters(1)
	for k := Kind(0); k < NumKinds; k++ {
		c.Add(0, k, int64(k)+1)
	}
	raw, err := json.Marshal(c.Snapshot().Totals)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]int64
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for k := Kind(0); k < NumKinds; k++ {
		if got := fields[k.String()]; got != int64(k)+1 {
			t.Errorf("snapshot field %q = %d, want %d", k.String(), got, int64(k)+1)
		}
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(NumKinds).String() != "unknown" {
		t.Errorf("out-of-range Kind.String() = %q", Kind(NumKinds).String())
	}
}

func TestRecorderContext(t *testing.T) {
	if got := FromContext(nil); got != Nop { //nolint:staticcheck // nil ctx tolerated by design
		t.Errorf("FromContext(nil) = %v, want Nop", got)
	}
	if got := FromContext(context.Background()); got != Nop {
		t.Errorf("FromContext(empty) = %v, want Nop", got)
	}
	rec := NewMemRecorder()
	ctx := WithRecorder(context.Background(), rec)
	if got := FromContext(ctx); got != Recorder(rec) {
		t.Errorf("FromContext roundtrip = %v, want the MemRecorder", got)
	}
	if Active(Nop) {
		t.Error("Active(Nop) = true")
	}
	if Active(nil) {
		t.Error("Active(nil) = true")
	}
	if !Active(rec) {
		t.Error("Active(MemRecorder) = false")
	}
}

func TestMemRecorder(t *testing.T) {
	rec := NewMemRecorder()
	rec.Record(PhaseSample{Kernel: "bfs", Phase: "level", Index: 0, Items: 1})
	rec.Record(PhaseSample{Kernel: "bfs", Phase: "level", Index: 1, Items: 7})
	if rec.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rec.Len())
	}
	s := rec.Samples()
	if s[1].Items != 7 || s[1].Index != 1 {
		t.Errorf("sample[1] = %+v", s[1])
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Errorf("Len after Reset = %d", rec.Len())
	}
}

// TestNopRecorderAllocFree proves the uninstrumented kernel path — fetch the
// recorder from a context without one, check Active, record nothing — does
// not allocate.
func TestNopRecorderAllocFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		rec := FromContext(ctx)
		if Active(rec) {
			rec.Record(PhaseSample{})
		}
	})
	if allocs != 0 {
		t.Errorf("uninstrumented recorder path allocates %.1f/op, want 0", allocs)
	}
}

// TestNilCountersAllocFree proves the nil-Counters fast path neither
// allocates nor races.
func TestNilCountersAllocFree(t *testing.T) {
	var c *Counters
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc(0, ChunksClaimed)
		c.Inc(0, Steals)
	})
	if allocs != 0 {
		t.Errorf("nil counter path allocates %.1f/op, want 0", allocs)
	}
}

func TestTimelineRing(t *testing.T) {
	tl := NewTimeline(4)
	for i := 0; i < 6; i++ {
		tl.Emit(Event{Name: "e", Start: float64(i)})
	}
	if tl.Len() != 4 {
		t.Errorf("Len = %d, want 4", tl.Len())
	}
	if tl.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", tl.Dropped())
	}
	ev := tl.Events()
	if len(ev) != 4 || ev[0].Start != 2 || ev[3].Start != 5 {
		t.Errorf("Events after overflow = %+v, want starts 2..5", ev)
	}
	tl.Reset()
	if tl.Len() != 0 || tl.Dropped() != 0 {
		t.Errorf("after Reset: Len=%d Dropped=%d", tl.Len(), tl.Dropped())
	}
	tl.Emit(Event{Start: 9})
	if ev := tl.Events(); len(ev) != 1 || ev[0].Start != 9 {
		t.Errorf("Events after Reset+Emit = %+v", ev)
	}
}

func TestTimelineNilAndZeroValue(t *testing.T) {
	var nilTL *Timeline
	nilTL.Emit(Event{})
	if nilTL.Len() != 0 || nilTL.Dropped() != 0 || nilTL.Events() != nil {
		t.Error("nil Timeline is not a no-op sink")
	}
	nilTL.Reset()

	var zero Timeline // lazily allocates on first Emit
	zero.Emit(Event{Name: "a"})
	if zero.Len() != 1 {
		t.Errorf("zero-value Timeline Len = %d, want 1", zero.Len())
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	tl := NewTimeline(16)
	tl.Emit(Event{Name: "level", Cat: "chunk", Start: 0, Dur: 10.5, Core: 1, Thread: 33,
		Lo: 0, Hi: 100, Stolen: true, Straggler: 0.5, Issue: 4, Stall: 6.5})
	tl.Emit(Event{Name: "barrier", Cat: "barrier", Start: 10.5, Dur: 2, Core: MachineLane})

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var xEvents, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			xEvents++
			if e.Name == "level" {
				if e.Pid != 1 || e.Tid != 33 {
					t.Errorf("chunk event lane = pid %d tid %d", e.Pid, e.Tid)
				}
				if e.Args["stolen"] != true || e.Args["straggler"] != 0.5 {
					t.Errorf("chunk args = %v", e.Args)
				}
			}
			if e.Name == "barrier" && e.Pid != 1<<20 {
				t.Errorf("machine-lane pid = %d, want %d", e.Pid, 1<<20)
			}
		case "M":
			meta++
		}
	}
	if xEvents != 2 {
		t.Errorf("X events = %d, want 2", xEvents)
	}
	if meta == 0 {
		t.Error("no metadata events emitted")
	}

	// Determinism: a fresh timeline with the same events must serialize to
	// the same bytes.
	tl2 := NewTimeline(16)
	for _, e := range tl.Events() {
		tl2.Emit(e)
	}
	var buf2 bytes.Buffer
	if err := tl2.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("identical event sequences produced different trace bytes")
	}
}

func TestJSONLFile(t *testing.T) {
	path := t.TempDir() + "/out.jsonl"
	f, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(map[string]int{"n": 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(b)); got != "{\"n\":1}\n{\"n\":2}" {
		t.Errorf("file content = %q", got)
	}
}
