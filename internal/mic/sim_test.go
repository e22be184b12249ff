package mic

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

func uniformTrace(items int, w Work) *Trace {
	ws := make([]Work, items)
	for i := range ws {
		ws[i] = w
	}
	return &Trace{Name: "uniform", Phases: []Phase{{Name: "p", Items: ws}}}
}

// serialWork is a trace's single-thread item latency plus its sequential
// work: what a one-thread run reproduces up to per-chunk overheads.
func serialWork(tr *Trace) float64 {
	var total float64
	for i := range tr.Phases {
		for _, it := range tr.Phases[i].Items {
			total += it.Total()
		}
		total += tr.Phases[i].Seq
	}
	return total
}

// sumWork is the aggregate cost vector of items.
func sumWork(items []Work) Work {
	var sum Work
	for _, it := range items {
		sum.Add(it)
	}
	return sum
}

func TestMachineConstructors(t *testing.T) {
	knf := KNF()
	if knf.Cores != 31 || knf.SMTWays != 4 || knf.MaxThreads() != 124 {
		t.Errorf("KNF topology wrong: %d cores × %d SMT", knf.Cores, knf.SMTWays)
	}
	host := HostXeon()
	if host.Cores != 12 || host.SMTWays != 2 || host.MaxThreads() != 24 {
		t.Errorf("host topology wrong: %d cores × %d SMT", host.Cores, host.SMTWays)
	}
	if knf.StallPerLine <= host.StallPerLine {
		t.Error("KNF in-order cores must expose more memory latency than the Xeon")
	}
}

func TestCoresidency(t *testing.T) {
	m := KNF()
	for _, tc := range []struct{ t, i, want int }{
		{1, 0, 1},
		{31, 30, 1},
		{32, 0, 2},  // thread 0 and 31 share core 0
		{32, 30, 1}, // core 30 has one thread
		{62, 5, 2},
		{124, 77, 4},
		{121, 0, 4},  // 121 = 3*31 + 28: cores 0..27 carry 4
		{121, 28, 3}, // cores 28..30 carry 3
	} {
		if got := m.Coresidency(tc.t, tc.i); got != tc.want {
			t.Errorf("Coresidency(t=%d, i=%d) = %d, want %d", tc.t, tc.i, got, tc.want)
		}
	}
}

func TestCoresidencySumsToThreads(t *testing.T) {
	m := KNF()
	property := func(tRaw uint8) bool {
		threads := int(tRaw%124) + 1
		// Sum of each core's load over one representative thread per core
		// must equal the thread count.
		total := 0
		counted := map[int]bool{}
		for i := 0; i < threads; i++ {
			core := i % m.Cores
			if !counted[core] {
				counted[core] = true
				total += m.Coresidency(threads, i)
			}
		}
		return total == threads
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWorkHelpers(t *testing.T) {
	w := Work{Issue: 1, FP: 2, Stall: 3, Atomics: 4}
	w2 := w.Scale(2)
	if w2.Issue != 2 || w2.FP != 4 || w2.Stall != 6 || w2.Atomics != 8 {
		t.Errorf("Scale: %+v", w2)
	}
	var acc Work
	acc.Add(w)
	acc.Add(w2)
	if acc.Issue != 3 || acc.Atomics != 12 {
		t.Errorf("Add: %+v", acc)
	}
	if w.Total() != 6 {
		t.Errorf("Total = %v", w.Total())
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := KNF()
	g := gen.RingOfCliques(50, 8)
	tr := ColoringTrace(m, g, NaturalOrder, 61)
	cfg := Config{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 100}
	a := Simulate(m, cfg, 61, tr)
	b := Simulate(m, cfg, 61, tr)
	if a != b {
		t.Errorf("simulation not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Errorf("non-positive simulated time %v", a)
	}
}

func TestSimulateSingleThreadNearSerial(t *testing.T) {
	m := KNF()
	tr := uniformTrace(10000, Work{Issue: 100, Stall: 50})
	cfg := Config{Kind: OpenMP, Policy: sched.Static, Chunk: 100}
	got := Simulate(m, cfg, 1, tr)
	serial := serialWork(tr)
	if got < serial {
		t.Errorf("1-thread time %v below serial work %v", got, serial)
	}
	if got > 1.05*serial {
		t.Errorf("1-thread overhead %v vs serial %v exceeds 5%%", got, serial)
	}
}

func TestSimulateSpeedupRegimes(t *testing.T) {
	m := KNF()
	cfg := Config{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 100}

	// Memory-bound: stalls dominate; SMT should keep per-thread speed, so
	// speedup at 124 threads must be well beyond the 31 cores.
	memBound := uniformTrace(200000, Work{Issue: 20, Stall: 600})
	base := Simulate(m, cfg, 1, memBound)
	at124 := base / Simulate(m, cfg, 124, memBound)
	if at124 < 80 {
		t.Errorf("memory-bound speedup at 124 threads = %.1f, want > 80 (SMT latency hiding)", at124)
	}

	// Compute-bound: issue dominates; speedup must saturate near the core
	// count, NOT scale with hardware threads.
	cpuBound := uniformTrace(200000, Work{Issue: 600, Stall: 20})
	baseC := Simulate(m, cfg, 1, cpuBound)
	at31 := baseC / Simulate(m, cfg, 31, cpuBound)
	at124c := baseC / Simulate(m, cfg, 124, cpuBound)
	if at31 < 25 {
		t.Errorf("compute-bound speedup at 31 threads = %.1f, want ≈31", at31)
	}
	if at124c > at31*1.35 {
		t.Errorf("compute-bound speedup grew from %.1f (31t) to %.1f (124t); issue saturation missing", at31, at124c)
	}
}

func TestSimulateMoreThreadsNotCatastrophic(t *testing.T) {
	// Under OpenMP dynamic without pathological structure, adding threads
	// should never slow the simulation down by more than the barrier costs.
	m := KNF()
	cfg := Config{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 50}
	tr := uniformTrace(100000, Work{Issue: 50, Stall: 200})
	prev := Simulate(m, cfg, 1, tr)
	for _, th := range []int{2, 4, 8, 16, 31} {
		cur := Simulate(m, cfg, th, tr)
		if cur > prev {
			t.Errorf("time increased from %v to %v going to %d threads", prev, cur, th)
		}
		prev = cur
	}
}

func TestSimulatePanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 threads")
		}
	}()
	Simulate(KNF(), Config{Kind: OpenMP}, 0, uniformTrace(10, Work{Issue: 1}))
}

func TestEmptyPhaseOnlySeq(t *testing.T) {
	m := KNF()
	tr := &Trace{Phases: []Phase{{Seq: 1234}}}
	got := Simulate(m, Config{Kind: OpenMP, Policy: sched.Static}, 8, tr)
	if got != 1234 {
		t.Errorf("empty phase time = %v, want 1234 (Seq only)", got)
	}
}

// allChunks collects the chunks a plan yields for n items on th threads.
func allChunks(p plan, th, n int) []chunk {
	var out []chunk
	it := p.chunks(th, n)
	for c, ok := it.next(); ok; c, ok = it.next() {
		out = append(out, c)
	}
	return out
}

func TestChunkPlansCoverAllItems(t *testing.T) {
	m := KNF()
	configs := []Config{
		{Kind: OpenMP, Policy: sched.Static, Chunk: 0},
		{Kind: OpenMP, Policy: sched.Static, Chunk: 7},
		{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 13},
		{Kind: OpenMP, Policy: sched.Guided, Chunk: 5},
		{Kind: Cilk, Chunk: 9},
		{Kind: Cilk, Chunk: 0},
		{Kind: TBB, Partitioner: sched.SimplePartitioner, Chunk: 11},
		{Kind: TBB, Partitioner: sched.AutoPartitioner, Chunk: 3},
		{Kind: TBB, Partitioner: sched.AffinityPartitioner, Chunk: 3},
	}
	for _, cfg := range configs {
		for _, n := range []int{1, 7, 100, 12345} {
			for _, th := range []int{1, 4, 31, 124} {
				covered := make([]bool, n)
				for _, c := range allChunks(planChunks(m, cfg, th, n), th, n) {
					if c.lo < 0 || c.hi > n || c.lo >= c.hi {
						t.Fatalf("%v n=%d t=%d: bad chunk %+v", cfg, n, th, c)
					}
					if c.owner < 0 || c.owner >= th {
						t.Fatalf("%v n=%d t=%d: bad owner %d", cfg, n, th, c.owner)
					}
					for i := c.lo; i < c.hi; i++ {
						if covered[i] {
							t.Fatalf("%v n=%d t=%d: item %d covered twice", cfg, n, th, i)
						}
						covered[i] = true
					}
				}
				for i, ok := range covered {
					if !ok {
						t.Fatalf("%v n=%d t=%d: item %d not covered", cfg, n, th, i)
					}
				}
			}
		}
	}
}

func TestGuidedChunksShrink(t *testing.T) {
	chunks := allChunks(plan{shape: guidedSize, size: 10}, 4, 10000)
	for i := 1; i < len(chunks); i++ {
		prev := chunks[i-1].hi - chunks[i-1].lo
		cur := chunks[i].hi - chunks[i].lo
		if cur > prev {
			t.Fatalf("guided chunk %d grew: %d after %d", i, cur, prev)
		}
	}
	last := chunks[len(chunks)-1]
	if last.hi-last.lo > 10 {
		// The tail may be smaller than the minimum but never bigger than
		// the shrink floor once reached.
		t.Logf("last chunk size %d", last.hi-last.lo)
	}
}

func TestConfigString(t *testing.T) {
	cases := map[string]Config{
		"OpenMP-dynamic": {Kind: OpenMP, Policy: sched.Dynamic},
		"OpenMP-static":  {Kind: OpenMP, Policy: sched.Static},
		"TBB-simple":     {Kind: TBB, Partitioner: sched.SimplePartitioner},
		"CilkPlus":       {Kind: Cilk},
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("Config.String() = %q, want %q", got, want)
		}
	}
	if OpenMP.String() != "OpenMP" || Cilk.String() != "CilkPlus" || TBB.String() != "TBB" {
		t.Error("RuntimeKind names wrong")
	}
}

func TestSharedCacheBonusSuperlinearity(t *testing.T) {
	// With the bonus on, a fully stall-bound kernel must exceed t× speedup
	// at full SMT occupancy (the paper's 153× on 121 threads); with the
	// bonus off it must not.
	tr := uniformTrace(100000, Work{Issue: 20, Stall: 2000})
	cfg := Config{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 100}

	m := KNF()
	m.MemBandwidth = 0 // isolate the bonus from the bandwidth ceiling
	base := Simulate(m, cfg, 1, tr)
	with := base / Simulate(m, cfg, 124, tr)
	if with <= 124 {
		t.Errorf("speedup with cache-share bonus = %.1f, want > 124 (superlinear)", with)
	}

	m.CacheShareBonus = 0
	base = Simulate(m, cfg, 1, tr)
	without := base / Simulate(m, cfg, 124, tr)
	if without > 124.5 {
		t.Errorf("speedup without bonus = %.1f, must not exceed thread count", without)
	}
}

func TestBandwidthCeiling(t *testing.T) {
	tr := uniformTrace(50000, Work{Issue: 1, Stall: 1000})
	cfg := Config{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 100}
	m := KNF()
	m.CacheShareBonus = 0
	m.MemBandwidth = 2 // absurdly narrow: 2 stall-cycles serviced per cycle
	base := Simulate(m, cfg, 1, tr)
	sp := base / Simulate(m, cfg, 124, tr)
	if sp > 2.5 {
		t.Errorf("speedup %.1f exceeds what a bandwidth of 2 can sustain", sp)
	}
}

func TestRelaxedBeatsLockedInSim(t *testing.T) {
	m := KNF()
	g, err := gen.Mesh(gen.Scaled(gen.Suite()[6], 8)) // pwtk stand-in
	if err != nil {
		t.Fatal(err)
	}
	src := int32(g.NumVertices() / 2)
	cfg := Config{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 32}
	locked := BFSTrace(m, g, src, NaturalOrder, BFSBlock, 32)
	relaxed := BFSTrace(m, g, src, NaturalOrder, BFSBlockRelaxed, 32)
	for _, th := range []int{11, 41, 121} {
		tl := Simulate(m, cfg, th, locked)
		tr := Simulate(m, cfg, th, relaxed)
		if tr >= tl {
			t.Errorf("t=%d: relaxed (%.0f) not faster than locked (%.0f)", th, tr, tl)
		}
	}
}

func TestBagSlowerThanBlockInSim(t *testing.T) {
	m := KNF()
	g, err := gen.Mesh(gen.Scaled(gen.Suite()[3], 8)) // inline_1 stand-in
	if err != nil {
		t.Fatal(err)
	}
	src := int32(g.NumVertices() / 2)
	block := BFSTrace(m, g, src, NaturalOrder, BFSBlockRelaxed, 32)
	bag := BFSTrace(m, g, src, NaturalOrder, BFSBag, 32)
	tb := Simulate(m, Config{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 32}, 61, block)
	tg := Simulate(m, Config{Kind: Cilk, Chunk: BagGrain}, 61, bag)
	if tg <= tb {
		t.Errorf("bag (%.0f) not slower than block queue (%.0f) at 61 threads", tg, tb)
	}
}

func TestColoringTraceStructure(t *testing.T) {
	m := KNF()
	g := gen.RingOfCliques(100, 10)
	seq := ColoringTrace(m, g, NaturalOrder, 1)
	if len(seq.Phases) != 2 {
		t.Errorf("sequential coloring trace has %d phases, want 2 (no conflicts)", len(seq.Phases))
	}
	par := ColoringTrace(m, g, NaturalOrder, 64)
	if len(par.Phases) < 4 {
		t.Errorf("parallel coloring trace has %d phases, want ≥4 (conflict rounds)", len(par.Phases))
	}
	if par.Phases[0].Items == nil || len(par.Phases[0].Items) != g.NumVertices() {
		t.Error("round-1 tentative phase must cover every vertex")
	}
	if len(par.Phases[2].Items) >= len(par.Phases[0].Items) {
		t.Error("conflict round did not shrink")
	}
	// Shuffled ordering must cost strictly more stall time.
	shuf := ColoringTrace(m, g, ShuffledOrder, 1)
	if serialWork(shuf) <= serialWork(seq) {
		t.Error("shuffled ordering not more expensive than natural")
	}
}

func TestIrregularTraceScalesWithIter(t *testing.T) {
	m := KNF()
	g := gen.Grid2D(50, 50)
	t1 := IrregularTrace(m, g, NaturalOrder, 1)
	t10 := IrregularTrace(m, g, NaturalOrder, 10)
	w1 := sumWork(t1.Phases[0].Items)
	w10 := sumWork(t10.Phases[0].Items)
	if w10.FP < 9*w1.FP {
		t.Errorf("FP work did not scale ~10x: %v vs %v", w10.FP, w1.FP)
	}
	// Memory misses must NOT scale with iter (cache reuse), only the FP
	// latency component of Stall grows.
	missOnly1 := w1.Stall - (FPLatency-1)*w1.FP/m.FPPerOp
	missOnly10 := w10.Stall - (FPLatency-1)*w10.FP/m.FPPerOp
	if math.Abs(missOnly1-missOnly10) > 1e-6*missOnly1 {
		t.Errorf("miss traffic changed with iter: %v vs %v", missOnly1, missOnly10)
	}
}

func TestBFSTraceClaimsConserveVertices(t *testing.T) {
	m := KNF()
	g := gen.Grid2D(40, 40)
	tr := BFSTrace(m, g, 0, NaturalOrder, BFSBlockRelaxed, 32)
	// Phases' item counts must sum to the reachable vertex count, and per
	// phase match the level widths.
	levels, numLevels := g.Levels(0)
	widths := make([]int64, numLevels)
	for _, l := range levels {
		widths[l]++
	}
	if len(tr.Phases) != len(widths) {
		t.Fatalf("%d phases vs %d levels", len(tr.Phases), len(widths))
	}
	total := 0
	for l, p := range tr.Phases {
		if int64(len(p.Items)) != widths[l] {
			t.Errorf("phase %d has %d items, want %d", l, len(p.Items), widths[l])
		}
		total += len(p.Items)
	}
	if total != g.NumVertices() {
		t.Errorf("trace covers %d vertices of %d", total, g.NumVertices())
	}
}

func TestOrderingString(t *testing.T) {
	if NaturalOrder.String() != "natural" || ShuffledOrder.String() != "shuffled" {
		t.Error("ordering names wrong")
	}
	if BFSBlock.String() != "Block" || BFSBag.String() != "Bag-relaxed" {
		t.Error("variant names wrong")
	}
}

func TestMachineJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveMachine(&buf, KNF()); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMachine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, KNF()) {
		t.Errorf("round trip changed the machine: %+v", m)
	}
}

func TestLoadMachineRejectsBad(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"unknown field":  `{"Name":"x","Cores":4,"SMTWays":2,"Bogus":1}`,
		"zero cores":     `{"Name":"x","Cores":0,"SMTWays":2}`,
		"zero smt":       `{"Name":"x","Cores":4,"SMTWays":0}`,
		"negative costs": `{"Name":"x","Cores":4,"SMTWays":2,"IssuePerItem":-1}`,
		"miss inversion": `{"Name":"x","Cores":4,"SMTWays":2,"MissPerEdgeNatural":0.5,"MissPerEdgeShuffle":0.1}`,
	}
	for name, in := range cases {
		if _, err := LoadMachine(strings.NewReader(in)); err == nil {
			t.Errorf("case %q: error expected", name)
		}
	}
}

func TestBuiltinMachinesValid(t *testing.T) {
	for _, m := range []*Machine{KNF(), HostXeon(), KNC()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	knc := KNC()
	if knc.Cores <= 50 {
		t.Errorf("KNC must anticipate 'more than 50 cores'; has %d", knc.Cores)
	}
	if knc.MaxThreads() <= KNF().MaxThreads() {
		t.Error("KNC must expose more hardware threads than KNF")
	}
}

// TestHalvingMatchesRecursiveSplit checks the chunker's iterative descent
// against the recursion it replaces: cilk_for's binary split, leaves in
// left-to-right order, owners dealt round-robin.
func TestHalvingMatchesRecursiveSplit(t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, 1023, 1024, 1025, 12345} {
		for _, grain := range []int{1, 2, 7, 100, 5000} {
			var want []chunk
			var rec func(lo, hi int)
			rec = func(lo, hi int) {
				if hi-lo <= grain {
					want = append(want, chunk{lo, hi, len(want) % 31})
					return
				}
				mid := lo + (hi-lo)/2
				rec(lo, mid)
				rec(mid, hi)
			}
			rec(0, n)
			got := allChunks(plan{shape: halving, size: grain}, 31, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d grain=%d: got %v, want %v", n, grain, got, want)
			}
		}
	}
}

func ldoorScale8(t testing.TB) *graph.Graph {
	t.Helper()
	cfg, err := gen.SuiteConfig("ldoor")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Mesh(gen.Scaled(cfg, 8))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSimulateAllocsPerCall: once a trace has been simulated, a call
// allocates its per-thread clocks and nothing that grows with the number of
// items or chunks. (Before the prefix sums moved onto the trace this call
// made about 1 120 allocations and 1 MB.)
func TestSimulateAllocsPerCall(t *testing.T) {
	m := KNF()
	tr := ColoringTrace(m, ldoorScale8(t), NaturalOrder, 121)
	for _, cfg := range []Config{
		{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 100},
		{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 1}, // 100× the chunks
		{Kind: Cilk, Chunk: 100},
		{Kind: TBB, Partitioner: sched.AffinityPartitioner, Chunk: 40},
	} {
		Simulate(m, cfg, 121, tr)
		if a := testing.AllocsPerRun(10, func() { Simulate(m, cfg, 121, tr) }); a > 2 {
			t.Errorf("%v: %v allocs per Simulate call, want <= 2", cfg, a)
		}
	}
}

// TestSimulateSharedTraceConcurrently: the first simulations of one *Trace
// may come from several goroutines at once, under different configurations;
// each must return exactly what a serial call returns. Run under -race, this
// is the check on the prefix sums built on first use.
func TestSimulateSharedTraceConcurrently(t *testing.T) {
	m := KNF()
	g := gen.RingOfCliques(200, 8)
	configs := []Config{
		{Kind: OpenMP, Policy: sched.Dynamic, Chunk: 100},
		{Kind: OpenMP, Policy: sched.Static, Chunk: 40},
		{Kind: Cilk, Chunk: 100},
		{Kind: TBB, Partitioner: sched.SimplePartitioner, Chunk: 40},
	}
	serial := BFSTrace(m, g, 0, NaturalOrder, BFSBlockRelaxed, 32)
	want := make([]uint64, len(configs))
	for i, cfg := range configs {
		want[i] = math.Float64bits(Simulate(m, cfg, 61, serial))
	}

	shared := BFSTrace(m, g, 0, NaturalOrder, BFSBlockRelaxed, 32)
	got := make([]uint64, len(configs))
	var wg sync.WaitGroup
	for i, cfg := range configs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			got[i] = math.Float64bits(Simulate(m, cfg, 61, shared))
		}(i, cfg)
	}
	wg.Wait()
	for i, cfg := range configs {
		if got[i] != want[i] {
			t.Errorf("%v: concurrent call returned bits %x, serial %x", cfg, got[i], want[i])
		}
	}
}

// TestTraceLiteralMatchesBuilder: a Trace written out as a literal, with no
// builder involved, simulates to exactly the builder-made trace's time.
func TestTraceLiteralMatchesBuilder(t *testing.T) {
	m := KNF()
	built := ColoringTrace(m, gen.RingOfCliques(50, 8), NaturalOrder, 61)
	literal := &Trace{Name: built.Name}
	for _, p := range built.Phases {
		literal.Phases = append(literal.Phases,
			Phase{Name: p.Name, Items: append([]Work(nil), p.Items...), Seq: p.Seq})
	}
	for _, cfg := range []Config{
		{Kind: OpenMP, Policy: sched.Guided, Chunk: 10},
		{Kind: TBB, Partitioner: sched.AutoPartitioner, Chunk: 4},
	} {
		if a, b := Simulate(m, cfg, 61, literal), Simulate(m, cfg, 61, built); a != b {
			t.Errorf("%v: literal trace %v, built trace %v", cfg, a, b)
		}
	}
}

// TestColoringTraceSweepSharesRoundOne: every trace of a sweep equals the
// one ColoringTraceMiss builds for that thread count alone, and all of them
// hold the same round-one arrays rather than copies.
func TestColoringTraceSweepSharesRoundOne(t *testing.T) {
	m := KNF()
	g := gen.RingOfCliques(50, 8)
	threads := []int{1, 31, 121}
	sweep := ColoringTraceSweep(m, g, m.MissPerEdge(NaturalOrder), threads)
	for i, th := range threads {
		alone := ColoringTraceMiss(m, g, m.MissPerEdge(NaturalOrder), th)
		if len(sweep[i].Phases) != len(alone.Phases) {
			t.Fatalf("t=%d: %d phases in the sweep, %d alone", th, len(sweep[i].Phases), len(alone.Phases))
		}
		for pi, p := range alone.Phases {
			q := sweep[i].Phases[pi]
			if p.Name != q.Name || p.Seq != q.Seq || !reflect.DeepEqual(p.Items, q.Items) {
				t.Errorf("t=%d phase %d differs from the trace built alone", th, pi)
			}
		}
		for pi := 0; pi < 2; pi++ {
			if &sweep[i].Phases[pi].Items[0] != &sweep[0].Phases[pi].Items[0] ||
				&sweep[i].Phases[pi].prefix[0] != &sweep[0].Phases[pi].prefix[0] {
				t.Errorf("t=%d: round-one phase %d is a copy, not shared", th, pi)
			}
		}
	}
}

// TestBFSTraceFromSharedLevels: BFSTrace is BFSTraceFrom over a level
// structure of its own, so a trace built through the wrapper and one built
// from a structure shared by all five variants agree field by field, prefix
// sums included.
func TestBFSTraceFromSharedLevels(t *testing.T) {
	m := KNF()
	g := gen.Grid2D(40, 30)
	src := int32(g.NumVertices() / 2)
	shared := NewBFSLevels(g, src)
	for _, v := range []BFSVariant{BFSBlock, BFSBlockRelaxed, BFSTLS, BFSBag, BFSHybrid} {
		a, b := BFSTrace(m, g, src, NaturalOrder, v, 32), BFSTraceFrom(m, g, shared, NaturalOrder, v, 32)
		if a.Name != b.Name || len(a.Phases) != len(b.Phases) || len(a.Phases) == 0 {
			t.Fatalf("%v: %q with %d phases through the wrapper, %q with %d from the shared structure",
				v, a.Name, len(a.Phases), b.Name, len(b.Phases))
		}
		for i := range a.Phases {
			if !reflect.DeepEqual(a.Phases[i], b.Phases[i]) {
				t.Errorf("%v: phase %d differs between the wrapper and the shared structure", v, i)
			}
			if len(a.Phases[i].prefix) != len(a.Phases[i].Items)+1 {
				t.Errorf("%v: phase %d came without its prefix sums", v, i)
			}
		}
	}
}

// TestBFSLevelsWidths: the level-width profile — the x_l input of the §III-C
// model — counts the vertices at each distance from the source.
func TestBFSLevelsWidths(t *testing.T) {
	w := NewBFSLevels(gen.Grid2D(1, 6), 0).Widths() // a path
	if len(w) != 6 {
		t.Fatalf("profile length %d, want 6", len(w))
	}
	for l, x := range w {
		if x != 1 {
			t.Errorf("width[%d] = %d, want 1", l, x)
		}
	}
	// A star: one center, n-1 leaves -> widths [1, n-1].
	b := graph.NewBuilder(10)
	for i := int32(1); i < 10; i++ {
		b.AddEdge(0, i)
	}
	if w = NewBFSLevels(b.Build(), 0).Widths(); len(w) != 2 || w[0] != 1 || w[1] != 9 {
		t.Errorf("star widths = %v, want [1 9]", w)
	}
}
