package mic

import (
	"fmt"

	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// RuntimeKind selects which runtime engine's scheduling behaviour and
// overhead profile the simulator applies.
type RuntimeKind int

const (
	// OpenMP: chunked loop scheduling per sched.Policy.
	OpenMP RuntimeKind = iota
	// Cilk: recursive binary splitting to a grain, work stealing.
	Cilk
	// TBB: blocked range with a partitioner, work stealing.
	TBB
)

// String names the runtime as in the paper's figure legends.
func (k RuntimeKind) String() string {
	switch k {
	case OpenMP:
		return "OpenMP"
	case Cilk:
		return "CilkPlus"
	case TBB:
		return "TBB"
	}
	return fmt.Sprintf("RuntimeKind(%d)", int(k))
}

// Config is the scheduling configuration of one simulated run.
type Config struct {
	Kind        RuntimeKind
	Policy      sched.Policy      // OpenMP only
	Partitioner sched.Partitioner // TBB only
	Chunk       int               // OpenMP chunk size / Cilk grain / TBB grain
}

// String formats the configuration like the paper's legends
// ("OpenMP-dynamic", "TBB-simple", "CilkPlus").
func (c Config) String() string {
	switch c.Kind {
	case OpenMP:
		return "OpenMP-" + c.Policy.String()
	case TBB:
		return "TBB-" + c.Partitioner.String()
	default:
		return "CilkPlus"
	}
}

// chunk is a contiguous range of phase items with an owner hint.
type chunk struct {
	lo, hi int
	owner  int // thread expected to run it; mismatch models a steal
}

// SimStats aggregates what the simulator observed over one run: how the
// phases were chunked, how often chunks executed away from their owner
// thread, how much memory-stall time the machine served, and which
// machine-wide bounds (bandwidth ceiling, chunk-counter serialisation)
// actually decided a phase's length.
type SimStats struct {
	Phases            int     `json:"phases"`
	Chunks            int     `json:"chunks"`
	Steals            int     `json:"steals,omitempty"`
	StallCycles       float64 `json:"stall_cycles"`
	BWThrottledPhases int     `json:"bw_throttled_phases,omitempty"`
	SerializedPhases  int     `json:"serialized_phases,omitempty"`
	BarrierCycles     float64 `json:"barrier_cycles,omitempty"`
	StraggledChunks   int     `json:"straggled_chunks,omitempty"`
}

// Simulate plays tr on machine m with t threads under cfg and returns the
// simulated execution time in cycles. Deterministic.
func Simulate(m *Machine, cfg Config, t int, tr *Trace) float64 {
	return SimulateObserved(m, cfg, t, tr, nil, nil)
}

// SimulateObserved is Simulate with observability: per-chunk execution
// intervals (and machine-wide bandwidth/serialisation/barrier effects) are
// emitted onto tl, and aggregate counts accumulate into st. Either sink may
// be nil to disable it; with both nil the cost model is byte-for-byte
// Simulate. Output on tl is deterministic: a fixed (machine, config,
// threads, trace) tuple always yields the same event sequence.
func SimulateObserved(m *Machine, cfg Config, t int, tr *Trace, tl *telemetry.Timeline, st *SimStats) float64 {
	if t < 1 {
		panic(fmt.Sprintf("mic: Simulate with %d threads", t))
	}
	tr.prepare.Do(tr.buildPrefixes)
	clocks := make(clockHeap, t) // reused by every phase
	var total float64
	for i := range tr.Phases {
		total += simulatePhase(m, cfg, t, &tr.Phases[i], total, tl, st, clocks)
	}
	return total
}

// chunkCost is the cost model's verdict on one chunk, with the detail the
// timeline wants to show.
type chunkCost struct {
	total     float64
	issue     float64 // issue cycles incl. per-chunk overhead and steal penalty
	stall     float64 // effective memory-stall cycles after SMT sharing
	stolen    bool    // work-stealing runtime ran it away from its owner
	straggler float64 // straggler slowdown fraction of the hosting core
}

// simulatePhase runs one parallel loop: partition items into chunks per the
// policy, assign chunks to threads (statically or greedily), apply the SMT
// core-sharing cost model, cap by memory bandwidth, add the barrier.
// start is the simulation time at phase entry (for timeline timestamps);
// tl and st are optional observation sinks (see SimulateObserved). clocks
// is the caller's per-thread scratch. The per-item work was done once, in
// p.prefix, so a call costs O(t + chunks) for a fixed-owner plan; a greedy
// plan costs O(chunks) until it builds its heap (at its t-th chunk, or at
// one that cost nothing) and O(t + chunks · log t) if it does.
func simulatePhase(m *Machine, cfg Config, t int, p *Phase, start float64, tl *telemetry.Timeline, st *SimStats, clocks clockHeap) float64 {
	r, ok := openPhase(m, cfg, t, p, start, tl, st)
	if !ok {
		return p.Seq
	}
	return r.finish(r.play(clocks))
}

// phaseRun is one phase being simulated: its chunk plan, the cost model's
// per-phase constants and the observation sinks. The chunk loop (play) is
// apart from the phase's set-up and its machine-wide bounds (finish) so that
// the FCFS oracle test can check the loop's result on its own.
type phaseRun struct {
	m          *Machine
	cfg        Config
	t          int
	p          *Phase
	start      float64
	tl         *telemetry.Timeline
	st         *SimStats
	plan       plan
	atomicCost float64
	itemTax    float64
}

// openPhase counts the phase and sets up its run. It reports false for a
// phase without items, which costs only its sequential part.
func openPhase(m *Machine, cfg Config, t int, p *Phase, start float64, tl *telemetry.Timeline, st *SimStats) (phaseRun, bool) {
	if st != nil {
		st.Phases++
	}
	n := len(p.Items)
	if n == 0 {
		return phaseRun{}, false
	}
	if len(p.prefix) != n+1 {
		panic(fmt.Sprintf("mic: phase %q changed after its trace was first simulated", p.Name))
	}
	r := phaseRun{m: m, cfg: cfg, t: t, p: p, start: start, tl: tl, st: st, plan: planChunks(m, cfg, t, n)}
	r.atomicCost = m.AtomicCost + m.AtomicContPerT*float64(t-1) + m.AtomicContSq*float64(t)*float64(t)
	// Dynamic and guided chunk grabs are fetch-adds on one hot counter:
	// they pay the same contention as any other atomic. (sched.Team's
	// Dynamic deliberately claims from a cursor per worker's block instead;
	// the simulator keeps the paper's counter, which the figures come from.)
	if cfg.Kind == OpenMP && cfg.Policy != sched.Static && t > 1 {
		r.plan.perChunkIssue += r.atomicCost
	}
	r.itemTax = r.plan.taxScale * runtimeItemTax(m, cfg) * float64(t) * float64(t)
	return r, true
}

// play runs every chunk of the phase and returns the phase's length (the
// latest clock), its number of chunks and the memory-stall cycles served.
//
// A fixed-owner plan runs each chunk on its owner. A greedy plan is first
// come, first served: a chunk goes to the earliest-free thread, the least
// (clock, thread). Every clock starts at 0, so while every chunk so far has
// cost more than nothing, chunk i goes to idle thread i, and its clock is
// written directly. The heap is built once all t threads are busy, or at
// the first chunk that did not move its thread's clock past 0: that thread
// then ties at 0 with a lower id than the idle ones, and from there on the
// heap decides. The clocks of threads no chunk reached are never read.
func (r *phaseRun) play(clocks clockHeap) (phaseTime float64, numChunks int, stallServed float64) {
	m, cfg, t, p, plan := r.m, r.cfg, r.t, r.p, r.plan
	prefix, atomicCost, itemTax := p.prefix, r.atomicCost, r.itemTax
	start, tl, st := r.start, r.tl, r.st

	cost := func(c chunk, thread int) chunkCost {
		w, lo := prefix[c.hi], &prefix[c.lo]
		w.Issue -= lo.Issue
		w.FP -= lo.FP
		w.Stall -= lo.Stall
		w.Atomics -= lo.Atomics
		k := m.Coresidency(t, thread)
		issue := w.Issue + plan.perChunkIssue
		stolen := false
		if thread != c.owner {
			issue += stealPenalty(m, cfg)
			stolen = cfg.Kind != OpenMP // FCFS reshuffles aren't thefts
		}
		sEff := w.Stall / (1 + m.CacheShareBonus*float64(k-1))
		stallServed += sEff
		latency := issue + w.FP + sEff
		total := latency
		if saturated := float64(k) * (issue + w.FP); saturated > total {
			total = saturated
		}
		// Scheduler interference and atomic RMWs are contention/waiting,
		// not issue work: they extend the thread's wall time but do not
		// occupy core slots, so they sit outside the saturation max.
		total += itemTax*float64(c.hi-c.lo) + w.Atomics*atomicCost
		// The last core also runs the card OS; its threads run slower.
		// With t < Cores no thread lands there, so lightly loaded runs
		// (and the 1-thread baseline) are unaffected.
		if thread%m.Cores == m.Cores-1 && t >= m.Cores {
			total *= 1 + m.NoiseCore0
		}
		// Injected straggler cores (fault experiments) slow every thread
		// they host, regardless of occupancy.
		sd := m.coreSlowdown(thread % m.Cores)
		if sd > 0 {
			total *= 1 + sd
		}
		return chunkCost{total: total, issue: issue, stall: sEff, stolen: stolen, straggler: sd}
	}
	observe := func(c chunk, thread int, at float64, cc chunkCost) {
		if st != nil {
			if cc.stolen {
				st.Steals++
			}
			if cc.straggler > 0 {
				st.StraggledChunks++
			}
		}
		if tl != nil {
			tl.Emit(telemetry.Event{
				Name: p.Name, Cat: "chunk",
				Start: start + at, Dur: cc.total,
				Core: thread % m.Cores, Thread: thread,
				Lo: c.lo, Hi: c.hi,
				Stolen: cc.stolen, Straggler: cc.straggler,
				Issue: cc.issue, Stall: cc.stall,
			})
		}
	}

	busy := t // threads whose clocks are live; a greedy plan's are written as it goes
	if plan.greedy {
		busy = 0
	} else {
		clocks.reset()
	}
	chunks := plan.chunks(t, len(p.Items))
	for c, ok := chunks.next(); ok; c, ok = chunks.next() {
		numChunks++
		e := &clocks[0] // a greedy plan's heap top
		switch {
		case !plan.greedy:
			e = &clocks[c.owner]
		case busy < t:
			e = &clocks[busy]
			*e = clockEntry{0, busy}
		}
		cc := cost(c, e.thread)
		observe(c, e.thread, e.clock, cc)
		e.clock += cc.total
		switch {
		case !plan.greedy:
		case busy == t:
			clocks.fixTop()
		default:
			// Chunk i went to thread i only while every cost was positive.
			// One that cost nothing leaves its thread at 0, first by id
			// among the idle ones, and a NaN breaks the order: from here on
			// the heap decides.
			if busy++; busy == t || !(cc.total > 0) {
				clocks.heapify(busy)
				busy = t
			}
		}
	}
	for _, e := range clocks[:busy] {
		if e.clock > phaseTime {
			phaseTime = e.clock
		}
	}
	return phaseTime, numChunks, stallServed
}

// finish applies the machine-wide bounds and the barrier to a phase whose
// chunks ran in phaseTime cycles, and returns the phase's whole length.
func (r *phaseRun) finish(phaseTime float64, numChunks int, stallServed float64) float64 {
	m, cfg, t, p, start, tl, st := r.m, r.cfg, r.t, r.p, r.start, r.tl, r.st
	if st != nil {
		st.Chunks += numChunks
		st.StallCycles += stallServed
	}
	// Aggregate bandwidth ceiling: the memory system can retire at most
	// MemBandwidth stall-cycles per cycle machine-wide.
	if m.MemBandwidth > 0 {
		if bw := stallServed / m.MemBandwidth; bw > phaseTime {
			if tl != nil {
				tl.Emit(telemetry.Event{
					Name: p.Name + " bandwidth ceiling", Cat: "bandwidth",
					Start: start + phaseTime, Dur: bw - phaseTime,
					Core: telemetry.MachineLane,
				})
			}
			if st != nil {
				st.BWThrottledPhases++
			}
			phaseTime = bw
		}
	}
	// The shared chunk counter serialises grabs machine-wide: a phase can
	// never finish faster than one line-bounce per chunk, and the bounce
	// latency grows with the number of contending threads on the ring.
	if cfg.Kind == OpenMP && cfg.Policy != sched.Static && t > 1 {
		if ser := float64(numChunks) * (m.AtomicCost + m.AtomicContPerT*float64(t)); ser > phaseTime {
			if tl != nil {
				tl.Emit(telemetry.Event{
					Name: p.Name + " chunk-counter serialisation", Cat: "serialize",
					Start: start + phaseTime, Dur: ser - phaseTime,
					Core: telemetry.MachineLane,
				})
			}
			if st != nil {
				st.SerializedPhases++
			}
			phaseTime = ser
		}
	}
	if t > 1 {
		b := m.BarrierBase + m.BarrierPerThread*float64(t)
		if tl != nil {
			tl.Emit(telemetry.Event{
				Name: "barrier", Cat: "barrier",
				Start: start + phaseTime, Dur: b,
				Core: telemetry.MachineLane,
			})
		}
		if st != nil {
			st.BarrierCycles += b
		}
		phaseTime += b
	}
	if cfg.Kind == OpenMP && m.OMPOversubPenalty > 0 && t >= m.MaxThreads()-1 {
		phaseTime *= 1 + m.OMPOversubPenalty
	}
	return phaseTime + p.Seq
}

// runtimeItemTax returns the per-item, per-t² scheduler interference of the
// configured runtime (zero for OpenMP's lean static loops).
func runtimeItemTax(m *Machine, cfg Config) float64 {
	switch cfg.Kind {
	case Cilk:
		return m.CilkItemTaxSq
	case TBB:
		return m.TBBItemTaxSq
	}
	return 0
}

// stealPenalty is the extra cost charged when a chunk executes away from
// its owner thread.
func stealPenalty(m *Machine, cfg Config) float64 {
	switch cfg.Kind {
	case Cilk:
		return m.StealCost * m.CilkRuntimeScale
	case TBB:
		return m.StealCost * m.TBBRuntimeScale
	default:
		return 0
	}
}

// chunkShape is how a plan cuts a phase's items into chunks.
type chunkShape int

const (
	// perThread: one contiguous block per thread, owned by it.
	perThread chunkShape = iota
	// fixedSize: equal chunks dealt round-robin (owner = index mod t).
	fixedSize
	// guidedSize: size = max(min, remaining/t), shrinking geometrically.
	guidedSize
	// halving: the leaves of the recursive binary split down to a grain
	// used by cilk_for and TBB's splitting partitioners.
	halving
)

// plan describes how a phase's items are chunked and assigned.
type plan struct {
	shape         chunkShape
	size          int // fixedSize: chunk size; guidedSize: minimum; halving: grain
	perChunkIssue float64
	greedy        bool    // FCFS assignment instead of fixed owners
	taxScale      float64 // multiplier on the runtime's per-item tax
}

// planChunks builds the chunk plan for a phase of n items under cfg.
func planChunks(m *Machine, cfg Config, t, n int) plan {
	wsOver := func(scale float64) float64 {
		return scale * (2*m.SpawnCost + m.WSContendPerT*float64(t))
	}
	switch cfg.Kind {
	case OpenMP:
		switch cfg.Policy {
		case sched.Static:
			if cfg.Chunk <= 0 {
				return plan{perThread, 0, m.StaticChunkCost, false, 1}
			}
			return plan{fixedSize, cfg.Chunk, m.StaticChunkCost, false, 1}
		case sched.Dynamic:
			return plan{fixedSize, max(cfg.Chunk, 1), m.DynamicGrabCost, true, 1}
		case sched.Guided:
			return plan{guidedSize, max(cfg.Chunk, 1), m.DynamicGrabCost, true, 1}
		}
	case Cilk:
		grain := cfg.Chunk
		if grain <= 0 {
			grain = sched.DefaultGrain(n, t)
		}
		return plan{halving, grain, wsOver(m.CilkRuntimeScale), true, 1}
	case TBB:
		grain := max(cfg.Chunk, 1)
		switch cfg.Partitioner {
		case sched.SimplePartitioner:
			return plan{halving, grain, wsOver(m.TBBRuntimeScale), true, 1}
		case sched.AutoPartitioner:
			// Coarse subranges that split only on steal events: fewer,
			// larger chunks, and extra scheduler traffic when the late
			// splits finally happen.
			return plan{halving, max(n/(3*t), grain), wsOver(m.TBBRuntimeScale), true, 1.15}
		case sched.AffinityPartitioner:
			// Fixed replayed assignment: 4 blocks per thread, round-robin,
			// dispatched as tasks but never rebalanced, plus the replay
			// bookkeeping on every touched element.
			return plan{fixedSize, max((n+4*t-1)/(4*t), grain), wsOver(m.TBBRuntimeScale), false, 1.5}
		}
	}
	panic(fmt.Sprintf("mic: unsupported config %+v", cfg))
}

// chunks returns the plan's chunks of n items for t threads, in dispatch
// order. They are generated one at a time: a sweep cell holds no chunk list.
func (p plan) chunks(t, n int) chunker {
	c := chunker{shape: p.shape, size: p.size, t: t, n: n}
	c.open[0], c.depth = n, 1
	return c
}

// chunker is the cursor of plan.chunks.
type chunker struct {
	shape   chunkShape
	size    int
	t, n    int
	lo, idx int // first item and index of the next chunk

	// halving only: the upper ends of the ranges the split has entered and
	// not finished, outermost first. A range at least halves per level, so
	// 64 levels cover any int.
	open  [64]int
	depth int
}

// next returns the next chunk, or false once the items are used up.
func (c *chunker) next() (chunk, bool) {
	if c.shape == perThread {
		for c.idx < c.t {
			w := c.idx
			c.idx++
			if lo, hi := c.n*w/c.t, c.n*(w+1)/c.t; lo < hi {
				return chunk{lo, hi, w}, true
			}
		}
		return chunk{}, false
	}
	lo := c.lo
	if lo >= c.n {
		return chunk{}, false
	}
	var hi int
	switch c.shape {
	case fixedSize:
		hi = min(lo+c.size, c.n)
	case guidedSize:
		hi = min(lo+max((c.n-lo)/c.t, c.size), c.n)
	case halving:
		// Descend into left halves until the range fits the grain; what is
		// left of each range entered on the way is split when lo gets there.
		hi = c.open[c.depth-1]
		for hi-lo > c.size {
			hi = lo + (hi-lo)/2
			c.open[c.depth] = hi
			c.depth++
		}
		c.depth--
	}
	out := chunk{lo, hi, c.idx % c.t}
	c.lo = hi
	c.idx++
	return out, true
}

type clockEntry struct {
	clock  float64
	thread int
}

// clockHeap holds one clock per thread. A fixed-owner plan indexes it by
// thread; the FCFS loop writes idle threads' clocks in thread order, then
// uses it as a min-heap on (clock, thread): a strict total order, so which
// thread is earliest-free never depends on how the heap happens to be laid
// out.
type clockHeap []clockEntry

// reset zeroes every clock. Equal clocks with ascending thread ids are
// already in heap order.
func (h clockHeap) reset() {
	for i := range h {
		h[i] = clockEntry{0, i}
	}
}

// heapify zeroes the clocks from index live on, which no chunk has reached,
// and orders the whole slice as a heap.
func (h clockHeap) heapify(live int) {
	for i := live; i < len(h); i++ {
		h[i] = clockEntry{0, i}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h clockHeap) less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].thread < h[j].thread
}

// fixTop restores heap order after the top entry's clock has grown.
func (h clockHeap) fixTop() { h.down(0) }

// down sifts entry i down to its place below it.
func (h clockHeap) down(i int) {
	for {
		least := 2*i + 1
		if least >= len(h) {
			return
		}
		if r := least + 1; r < len(h) && h.less(r, least) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
