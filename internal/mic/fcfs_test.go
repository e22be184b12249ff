package mic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"micgraph/internal/fault"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// heapOnlyReplay checks one played phase against the chunk loop that sends
// every greedy chunk through the (clock, thread) heap and resets every clock
// per phase. It walks the plan's chunks beside their timeline events: each
// chunk must have run on the thread that loop picks, starting at that
// thread's clock, bit for bit. A chunk's cost is a function of the chunk and
// its thread alone, so the loop takes it from the event's duration; the
// cost model stays written once. It returns the loop's phase length, chunk
// count and stall cycles.
func heapOnlyReplay(t *testing.T, r *phaseRun, events []telemetry.Event, clocks clockHeap) (phaseTime float64, numChunks int, stallServed float64) {
	t.Helper()
	clocks.reset()
	chunks := r.plan.chunks(r.t, len(r.p.Items))
	for c, ok := chunks.next(); ok; c, ok = chunks.next() {
		if numChunks == len(events) {
			t.Fatalf("%v t=%d phase %q: %d chunk events, the plan has more", r.cfg, r.t, r.p.Name, len(events))
		}
		ev := events[numChunks]
		numChunks++
		e := &clocks[0]
		if !r.plan.greedy {
			e = &clocks[c.owner]
		}
		if ev.Lo != c.lo || ev.Hi != c.hi || ev.Thread != e.thread || math.Float64bits(ev.Start) != math.Float64bits(r.start+e.clock) {
			t.Fatalf("%v t=%d phase %q chunk %d [%d, %d): ran on thread %d at %v, heap-only loop says thread %d at %v",
				r.cfg, r.t, r.p.Name, numChunks-1, c.lo, c.hi, ev.Thread, ev.Start, e.thread, r.start+e.clock)
		}
		e.clock += ev.Dur
		stallServed += ev.Stall
		if r.plan.greedy {
			clocks.fixTop()
		}
	}
	for _, e := range clocks {
		if e.clock > phaseTime {
			phaseTime = e.clock
		}
	}
	return phaseTime, numChunks, stallServed
}

// bits formats v so that two values print alike only if every float in
// them has the same bits (NaN aside): %v prints the shortest decimal that
// reads back to the same float64, and -0 as "-0".
func bits(v any) string { return fmt.Sprintf("%+v", v) }

// sameEvent reports whether two timeline events are equal, every float to
// the bit.
func sameEvent(a, b telemetry.Event) bool {
	for _, f := range [][2]float64{{a.Start, b.Start}, {a.Dur, b.Dur}, {a.Straggler, b.Straggler}, {a.Issue, b.Issue}, {a.Stall, b.Stall}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return a == b
}

// compareFCFS plays tr phase by phase and checks each phase against
// heapOnlyReplay: its chunk events, its length, chunk count and stall
// cycles, all bit for bit. It then checks that SimulateObserved's total,
// SimStats and timeline are those of the phases played one by one. It
// returns the number of chunks that cost nothing.
func compareFCFS(t *testing.T, m *Machine, cfg Config, threads int, tr *Trace) (zeroChunks int) {
	t.Helper()
	tr.prepare.Do(tr.buildPrefixes)
	events := 1 // at most a chunk per item and three events more per phase
	for _, p := range tr.Phases {
		events += len(p.Items) + 3
	}
	tl, phaseTL := telemetry.NewTimeline(events), telemetry.NewTimeline(events)
	var st SimStats
	clocks, ref := make(clockHeap, threads), make(clockHeap, threads)
	start := 0.0
	for i := range tr.Phases {
		p := &tr.Phases[i]
		phaseTL.Reset()
		r, ok := openPhase(m, cfg, threads, p, start, phaseTL, &st)
		if !ok {
			start += p.Seq
			continue
		}
		got, gotChunks, gotStall := r.play(clocks)
		played := phaseTL.Events()
		want, wantChunks, wantStall := heapOnlyReplay(t, &r, played, ref)
		if math.Float64bits(got) != math.Float64bits(want) || gotChunks != wantChunks || gotChunks != len(played) || math.Float64bits(gotStall) != math.Float64bits(wantStall) {
			t.Fatalf("%v t=%d phase %d (%q, %d items): length %v, %d chunks, %d events, stall %v; heap-only loop: %v, %d chunks, stall %v",
				cfg, threads, i, p.Name, len(p.Items), got, gotChunks, len(played), gotStall, want, wantChunks, wantStall)
		}
		for _, ev := range played {
			tl.Emit(ev)
			if ev.Dur == 0 {
				zeroChunks++
			}
		}
		phaseTL.Reset()
		start += r.finish(got, gotChunks, gotStall)
		for _, ev := range phaseTL.Events() {
			tl.Emit(ev)
		}
	}
	whole := telemetry.NewTimeline(events)
	var wholeSt SimStats
	if total := SimulateObserved(m, cfg, threads, tr, whole, &wholeSt); math.Float64bits(total) != math.Float64bits(start) {
		t.Fatalf("%v t=%d: SimulateObserved %v, its phases played one by one %v", cfg, threads, total, start)
	}
	if bits(wholeSt) != bits(st) {
		t.Fatalf("%v t=%d: SimulateObserved stats %+v, its phases' %+v", cfg, threads, wholeSt, st)
	}
	if tl.Dropped() != 0 || whole.Dropped() != 0 {
		t.Fatalf("%v t=%d: timeline dropped events", cfg, threads)
	}
	got, want := whole.Events(), tl.Events()
	if len(got) != len(want) {
		t.Fatalf("%v t=%d: SimulateObserved emitted %d events, its phases %d", cfg, threads, len(got), len(want))
	}
	for i := range got {
		if !sameEvent(got[i], want[i]) {
			t.Fatalf("%v t=%d: SimulateObserved's event %d is %+v, its phases' %+v", cfg, threads, i, got[i], want[i])
		}
	}
	return zeroChunks
}

// fcfsConfigs is every plan shape: OpenMP static (blocks and chunks),
// dynamic and guided; Cilk at its default grain and at a small one; TBB
// simple, auto and affinity.
var fcfsConfigs = []Config{
	{Kind: OpenMP, Policy: sched.Static},
	{Kind: OpenMP, Policy: sched.Static, Chunk: 3},
	{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 1},
	{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 4},
	{Kind: OpenMP, Policy: sched.Guided, Chunk: 2},
	{Kind: Cilk},
	{Kind: Cilk, Chunk: 2},
	{Kind: TBB, Partitioner: sched.SimplePartitioner, Chunk: 1},
	{Kind: TBB, Partitioner: sched.AutoPartitioner, Chunk: 1},
	{Kind: TBB, Partitioner: sched.AffinityPartitioner, Chunk: 1},
}

// freeKNF is KNF with every per-chunk, per-item and steal overhead at zero,
// so a chunk of zero-work items costs nothing on any plan.
func freeKNF() *Machine {
	m := KNF()
	m.Name = "KNF, free scheduling"
	m.AtomicCost, m.AtomicContPerT, m.AtomicContSq = 0, 0, 0
	m.StaticChunkCost, m.DynamicGrabCost = 0, 0
	m.SpawnCost, m.StealCost, m.WSContendPerT = 0, 0, 0
	m.CilkItemTaxSq, m.TBBItemTaxSq = 0, 0
	return m
}

// fcfsMachines are KNF, the host, free-scheduling KNF (zero-cost chunks)
// and KNF with straggling cores (threads that tie at equal work do not tie
// in time).
func fcfsMachines() []*Machine {
	return []*Machine{
		KNF(),
		HostXeon(),
		freeKNF(),
		KNF().WithStragglers(fault.New(7).Enable("mic/straggler", 0.3).SetParam("mic/straggler", 0.5)),
	}
}

// fcfsTrace is a trace of phases shaped for the comparison, drawn from seed:
// fewer items than threads and many more, runs of zero-work items (at the
// front of a phase, too), equal items (ties), and an empty phase.
func fcfsTrace(seed uint64, threads int) *Trace {
	rng := rand.New(rand.NewPCG(seed, uint64(threads)))
	item := func(zeroShare float64) Work {
		if rng.Float64() < zeroShare {
			return Work{}
		}
		return Work{Issue: float64(1 + rng.IntN(40)), FP: float64(rng.IntN(3)), Stall: float64(rng.IntN(200)), Atomics: float64(rng.IntN(2))}
	}
	phase := func(name string, n int, zeroShare float64) Phase {
		items := make([]Work, n)
		for i := range items {
			items[i] = item(zeroShare)
		}
		return Phase{Name: name, Items: items, Seq: float64(rng.IntN(50))}
	}
	uniform := phase("uniform", threads+1+rng.IntN(3*threads), 0)
	for i := range uniform.Items {
		uniform.Items[i] = Work{Issue: 10, Stall: 30}
	}
	zeroFirst := phase("zero first", max(2, threads/2), 0.3)
	zeroFirst.Items[0] = Work{}
	return &Trace{Name: "fcfs", Phases: []Phase{
		phase("narrow", 1+rng.IntN(threads), 0),
		zeroFirst,
		phase("zero runs", 1+rng.IntN(2*threads), 0.5),
		{Name: "empty", Seq: 7},
		uniform,
		phase("wide", 4*threads+rng.IntN(200), 0.1),
		phase("all zero", 1+rng.IntN(threads+2), 1),
	}}
}

var fcfsThreads = []int{1, 2, 3, 31, 121, 244}

// TestSimulateFCFSMatchesHeapOnly: handing idle threads their chunks
// without the heap changes no phase time, no SimStats field and no timeline
// event, on every plan shape, thread count and machine, with narrow phases,
// zero-cost chunks and ties.
func TestSimulateFCFSMatchesHeapOnly(t *testing.T) {
	free := freeKNF().Name
	for _, m := range fcfsMachines() {
		for _, cfg := range fcfsConfigs {
			for _, th := range fcfsThreads {
				zeros := 0
				for seed := range uint64(3) {
					zeros += compareFCFS(t, m, cfg, th, fcfsTrace(seed, th))
				}
				if m.Name == free && zeros == 0 {
					t.Errorf("%s %v t=%d: no chunk cost nothing; the zero-cost path went untested", m.Name, cfg, th)
				}
			}
		}
	}
}

// FuzzSimulateFCFS is TestSimulateFCFSMatchesHeapOnly on fuzzed traces,
// plans, machines and thread counts.
func FuzzSimulateFCFS(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(30))
	f.Add(uint64(2), uint8(2), uint8(5), uint8(120))
	f.Add(uint64(3), uint8(3), uint8(9), uint8(243))
	machines := fcfsMachines()
	f.Fuzz(func(t *testing.T, seed uint64, machine, config, threads uint8) {
		m := machines[int(machine)%len(machines)]
		cfg := fcfsConfigs[int(config)%len(fcfsConfigs)]
		th := 1 + int(threads)%244
		compareFCFS(t, m, cfg, th, fcfsTrace(seed, th))
	})
}
