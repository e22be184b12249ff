package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/mic"
	"micgraph/internal/perfmodel"
)

// kernel is the algorithm a trace set traces.
type kernel int

const (
	kernelColoring  kernel = iota // Algorithms 2–4: one trace per thread count
	kernelIrregular               // Algorithm 5: the parameter is the iteration count
	kernelBFS                     // layered BFS from |V|/2: one trace per queue variant, the parameter is the block size
)

// source is the graphs a trace set traces and the miss rate its coloring
// traces cost a neighbour read at.
type source int

const (
	natural          source = iota // the suite's graphs at the machine's natural-order rate
	shuffled                       // their shuffled copies (Figure 2) at the shuffled rate
	measuredNatural                // the suite's graphs at the rate measured on their numbering (mic.EffectiveMissPerEdge)
	measuredShuffled               // the suite's graphs at the rate measured on their shuffled copies
	measuredRCM                    // the suite's graphs at the rate measured on the RCM renumbering of those copies
	rmat                           // extra-rmat's power-law graph at the natural-order rate
)

// traceKey names one trace set: the machine its traces are costed on, what
// they trace and the kernel parameter. Sweeps with equal keys read one set.
type traceKey struct {
	m      *mic.Machine
	kernel kernel
	src    source
	param  int
}

// machine picks the machine a sweep runs on from the caller's KNF and host.
type machine func(knf, host *mic.Machine) *mic.Machine

// tuned is a copy of the caller's KNF with tune applied. Each sweep resolves
// to a copy of its own, and so to a trace set of its own.
func tuned(tune func(*mic.Machine)) machine {
	return func(knf, _ *mic.Machine) *mic.Machine {
		m := *knf
		tune(&m)
		return &m
	}
}

// line is one configuration of a sweep: the curve's label, the runtime
// configuration its cells play under and, for BFS, the queue variant whose
// traces they play.
type line struct {
	label   string
	cfg     mic.Config
	variant mic.BFSVariant
}

// A sweep is the cells of one trace key: every line on every graph at one
// thread and at every thread count. A best-config sweep reduces them to a
// speedup curve per line against each graph's fastest one-thread line (§V-A),
// a geometric mean across graphs; a self-relative sweep (self) to each line's
// times, for the curve against its own one-thread run and what else its
// experiment derives.
type sweep struct {
	on      machine // nil: the caller's KNF
	kernel  kernel
	src     source
	param   int
	only    string // one suite graph by name; "": every graph of the source
	lines   []line
	threads []int // the x axis; nil: ThreadSweep()
	self    bool
	clamp   bool // play a thread count beyond the machine's hardware threads at its hardware threads

	// Filled in per call: by resolve, then by the key's run.
	m      *mic.Machine
	gis    []int        // the source's graphs read, by index; a cell's graph is its position here
	played []int        // threads, clamped when clamp is set
	res    []cellResult // by cell index
	failed error        // why the key's traces were not built, when they were not
}

func (sw *sweep) key() traceKey { return traceKey{sw.m, sw.kernel, sw.src, sw.param} }

func (sw *sweep) size() int { return len(sw.lines) * len(sw.gis) * (len(sw.played) + 1) }

// cell maps cell i to its line, graph position and thread count, in claim
// order: the one-thread baselines graph by graph, then line by line, thread
// count by thread count, graph by graph. result is the inverse (ti 0: the
// baseline; ti > 0: played[ti-1]).
func (sw *sweep) cell(i int) (li, k, t int) {
	nl, ng, nt := len(sw.lines), len(sw.gis), len(sw.played)
	if i < nl*ng {
		return i % nl, i / nl, 1
	}
	i -= nl * ng
	return i / (nt * ng), i % ng, sw.played[i/ng%nt]
}

func (sw *sweep) result(li, ti, k int) *cellResult {
	nl, ng := len(sw.lines), len(sw.gis)
	if ti == 0 {
		return &sw.res[k*nl+li]
	}
	return &sw.res[nl*ng+(li*len(sw.played)+ti-1)*ng+k]
}

// sweepCells is the cell runner: every cell of the sweeps as one claim
// sequence, each inside Harness.cell, results left on each sweep by index.
// trace returns the trace of line li on graph position k at t threads.
func (h *Harness) sweepCells(sweeps []*sweep, trace func(sw *sweep, li, k, t int) *mic.Trace) {
	ends := make([]int, len(sweeps))
	n := 0
	for j, sw := range sweeps {
		n += sw.size()
		ends[j] = n
	}
	res := h.cells(n, h.telemetryOn(), func(i int, st *mic.SimStats) float64 {
		j, _ := slices.BinarySearch(ends, i+1)
		sw := sweeps[j]
		i -= ends[j] - sw.size()
		li, k, t := sw.cell(i)
		if sw.self || i < len(sw.lines)*len(sw.gis) {
			st = nil
		}
		return mic.SimulateObserved(sw.m, sw.lines[li].cfg, t, trace(sw, li, k, t), nil, st)
	})
	for j, sw := range sweeps {
		sw.res = res[ends[j]-sw.size() : ends[j]]
	}
}

// failed annotates a cell that did not yield a time.
func (e *Experiment) failed(sw *sweep, r *cellResult, li, k, t int) bool {
	if r.err != nil {
		e.Errors = append(e.Errors, CellError{Experiment: e.ID, Series: sw.lines[li].label,
			Graph: k, Threads: t, Attempts: r.attempts, Err: r.err})
	}
	return r.err != nil
}

// cutOff marks, once per cause, that the experiment lost cells: to err, the
// failure of a trace set, or when err is nil to the end of the harness context.
func (e *Experiment) cutOff(h *Harness, err error) {
	if err == nil {
		err = h.cancelled()
	}
	for _, ce := range e.Errors {
		if ce.Graph == -1 && errors.Is(ce.Err, err) {
			return
		}
	}
	e.Errors = append(e.Errors, CellError{Experiment: e.ID, Graph: -1, Err: err})
}

// best books a best-config sweep on e. A failed cell is annotated and left out
// of its point's mean, and a graph whose every baseline failed is left out of
// every point. A point stands if its last cell was claimed; at the first that
// was not, the sweep's data ends and cutOff marks it, so a sweep cut off in
// its baselines adds no series. With Telemetry on every successful cell past
// the baselines is recorded as a CellTelemetry.
func (e *Experiment) best(h *Harness, sw *sweep) {
	nl, ng, nt := len(sw.lines), len(sw.gis), len(sw.played)
	base := make([]float64, ng)
	for k := range base {
		base[k] = math.NaN()
		for li := range sw.lines {
			r := sw.result(li, 0, k)
			if r.attempts == 0 {
				e.cutOff(h, sw.failed)
				return
			}
			if !e.failed(sw, r, li, k, 1) && (math.IsNaN(base[k]) || r.time < base[k]) {
				base[k] = r.time
			}
		}
	}

	series := make([]Series, nl)
	for li := range series {
		series[li] = Series{Label: sw.lines[li].label, Threads: sw.threads, Values: make([]float64, nt)}
	}
	per := make([]float64, 0, ng)
	for p := 0; p < nl*nt && ng > 0; p++ { // point p: line p/nt at thread count p%nt
		li, ti := p/nt, p%nt
		if sw.result(li, ti+1, ng-1).attempts == 0 {
			e.cutOff(h, sw.failed)
			break
		}
		per = per[:0]
		for k := range base {
			r, t := sw.result(li, ti+1, k), sw.played[ti]
			if math.IsNaN(base[k]) || e.failed(sw, r, li, k, t) {
				continue // no baseline (annotated above), or no time
			}
			if h.telemetryOn() {
				e.Cells = append(e.Cells, CellTelemetry{Experiment: e.ID, Series: sw.lines[li].label, Graph: k,
					Threads: t, Attempts: r.attempts, SimTime: r.time, Stats: r.stats})
			}
			per = append(per, base[k]/r.time)
		}
		series[li].Values[ti] = GeoMean(per)
	}
	e.Series = append(e.Series, series...)
}

// run is one line of a self-relative sweep once booked: its times at one
// thread (times[0]) and at each thread count, each row by graph position, NaN
// where a cell failed, nil where the row's last cell was not claimed.
type run struct {
	*sweep
	line  int
	times [][]float64
}

// runs books a self-relative sweep on e, failed cells annotated and cut-off
// rows marked by cutOff, and returns its runs line by line.
func (e *Experiment) runs(h *Harness, sw *sweep) []run {
	ng := len(sw.gis)
	out := make([]run, len(sw.lines))
	for li := range out {
		times := make([][]float64, len(sw.played)+1)
		for ti := range times {
			if sw.result(li, ti, ng-1).attempts == 0 {
				e.cutOff(h, sw.failed)
				continue
			}
			t := 1
			if ti > 0 {
				t = sw.played[ti-1]
			}
			times[ti] = make([]float64, ng)
			for k := range times[ti] {
				r := sw.result(li, ti, k)
				times[ti][k] = r.time
				e.failed(sw, r, li, k, t)
			}
		}
		out[li] = run{sw, li, times}
	}
	return out
}

// curve is the run's speedup over its own one-thread run.
func (r run) curve() Series {
	return Series{Label: r.lines[r.line].label, Threads: r.threads, Values: ratios(r.times[:1], r.times[1:])}
}

// curves appends each run's curve.
func (e *Experiment) curves(runs []run) {
	for _, r := range runs {
		e.Series = append(e.Series, r.curve())
	}
}

// ratios returns, point by point of den, the geometric mean over the graphs
// of num/den; a num of one row (a baseline) serves every point. Failed cells
// drop out of the mean and a cut-off point reads 0. The ratio of a single
// graph is reported as it is, not through the mean's exp∘log.
func ratios(num, den [][]float64) []float64 {
	vals := make([]float64, len(den))
	var per []float64
	for ti, d := range den {
		n := num[ti%len(num)]
		if n == nil || d == nil {
			continue
		}
		per = per[:0]
		for gi := range d {
			if r := n[gi] / d[gi]; !math.IsNaN(r) {
				per = append(per, r)
			}
		}
		if vals[ti] = GeoMean(per); len(d) == 1 && len(per) == 1 {
			vals[ti] = per[0]
		}
	}
	return vals
}

// model is the §III-C model curve of sw's graphs at its block size: Figure 4
// combines them by geometric mean (mean), of one graph too; the ablations read
// their one graph's curve as it is.
func (c *call) model(label string, sw *sweep, mean bool) Series {
	widths := make([][]int64, len(sw.gis))
	for k, gi := range sw.gis {
		widths[k] = c.levels(sw.src, gi).Widths()
	}
	vals, per := make([]float64, len(sw.threads)), make([]float64, len(widths))
	for ti, t := range sw.threads {
		for k := range per {
			per[k] = perfmodel.Speedup(widths[k], t, sw.param)
		}
		if vals[ti] = per[0]; mean {
			vals[ti] = GeoMean(per)
		}
	}
	return Series{Label: label, Threads: sw.threads, Values: vals}
}

// call is one run of the engine: the suite (its harness carrying the call's
// team), the caller's machines, and what it builds on first use: the list of
// the suite's graph indices and extra-rmat's graph.
type call struct {
	s         *Suite
	knf, host *mic.Machine
	every     []int
	powerLaw  lazy[rmatGraph]
}

// rmatGraph is a Graph 500-style RMAT graph (a=0.57, b=c=0.19) scaled down
// with the suite: its giant component, since a BFS never reaches RMAT's
// isolated vertices, and that component's level structure from |V|/2.
type rmatGraph struct {
	g  *graph.Graph
	ls *mic.BFSLevels
}

func (c *call) rmat() rmatGraph {
	return c.powerLaw.get(func() rmatGraph {
		logN := 17
		for f := c.s.Scale; f > 1; f /= 2 {
			logN -= 2
		}
		g, _ := gen.RMAT(max(logN, 10), 16, 0.57, 0.19, 0.19, 777).LargestComponent()
		return rmatGraph{g, mic.NewBFSLevels(g, int32(g.NumVertices()/2))}
	})
}

// traced returns graph gi of the key's source and the miss rate its coloring
// traces are costed at.
func (c *call) traced(k traceKey, gi int) (*graph.Graph, float64) {
	s, m := c.s, k.m
	switch k.src {
	case shuffled:
		return s.shuffledGraph(gi), m.MissPerEdge(mic.ShuffledOrder)
	case measuredNatural:
		return s.Graphs[gi], m.EffectiveMissPerEdge(s.Graphs[gi])
	case measuredShuffled:
		return s.Graphs[gi], m.EffectiveMissPerEdge(s.shuffledGraph(gi))
	case measuredRCM:
		sh := s.shuffledGraph(gi)
		restored, err := sh.Permute(graph.RCMOrder(sh))
		if err != nil {
			panic(err) // RCMOrder always returns a valid permutation
		}
		return s.Graphs[gi], m.EffectiveMissPerEdge(restored)
	case rmat:
		return c.rmat().g, m.MissPerEdge(mic.NaturalOrder)
	}
	return s.Graphs[gi], m.MissPerEdge(mic.NaturalOrder)
}

func (c *call) levels(src source, gi int) *mic.BFSLevels {
	if src == rmat {
		return c.rmat().ls
	}
	return c.s.Levels(gi)
}

// traceSet is every trace the sweeps of one key read, built by task: per graph
// (coloring: a trace per thread count, sharing round one) or per (graph,
// variant) (BFS). Task i's traces start at traces[i*stride].
type traceSet struct {
	kernel  kernel
	threads []int // coloring: the thread counts traced
	tasks   []traceTask
	stride  int
	traces  []*mic.Trace
}

type traceTask struct {
	gi      int
	variant mic.BFSVariant
}

func (ts *traceSet) task(sw *sweep, li, k int) traceTask {
	if ts.kernel == kernelBFS {
		return traceTask{sw.gis[k], sw.lines[li].variant}
	}
	return traceTask{gi: sw.gis[k]}
}

func (ts *traceSet) at(sw *sweep, li, k, t int) *mic.Trace {
	i := slices.Index(ts.tasks, ts.task(sw, li, k)) * ts.stride
	if ts.kernel == kernelColoring {
		i += slices.Index(ts.threads, t)
	}
	return ts.traces[i]
}

// traces builds key k's trace set, its tasks as Harness.each tasks.
func (c *call) traces(k traceKey, sweeps []*sweep) *traceSet {
	ts := &traceSet{kernel: k.kernel, stride: 1, tasks: make([]traceTask, 0, len(c.s.Graphs))}
	for _, sw := range sweeps {
		for _, t := range append([]int{1}, sw.played...) {
			if k.kernel == kernelColoring && !slices.Contains(ts.threads, t) {
				ts.threads = append(ts.threads, t)
			}
		}
		for li := range sw.lines {
			for pos := range sw.gis {
				if tk := ts.task(sw, li, pos); !slices.Contains(ts.tasks, tk) {
					ts.tasks = append(ts.tasks, tk)
				}
			}
		}
	}
	if k.kernel == kernelColoring {
		ts.stride = len(ts.threads)
	}
	ts.traces = make([]*mic.Trace, len(ts.tasks)*ts.stride)
	c.s.Harness.each(len(ts.tasks), func(i int) {
		tk := ts.tasks[i]
		g, miss := c.traced(k, tk.gi)
		switch k.kernel {
		case kernelColoring:
			copy(ts.traces[i*ts.stride:], mic.ColoringTraceSweep(k.m, g, miss, ts.threads))
		case kernelIrregular:
			ts.traces[i] = mic.IrregularTrace(k.m, g, mic.NaturalOrder, k.param)
		case kernelBFS:
			ts.traces[i] = mic.BFSTraceFrom(k.m, g, c.levels(k.src, tk.gi), mic.NaturalOrder, tk.variant, k.param)
		}
	})
	c.s.derived.traceSets.Add(1)
	return ts
}

// runKey builds key k's trace set and plays the cells of the sweeps that read
// it. A panic while building is booked on each of those sweeps instead.
func (c *call) runKey(k traceKey, sweeps []*sweep) {
	var ts *traceSet
	if err := contain("experiment", func() { ts = c.traces(k, sweeps) }); err != nil {
		for _, sw := range sweeps {
			sw.res, sw.failed = make([]cellResult, sw.size()), err
		}
		return
	}
	c.s.Harness.sweepCells(sweeps, ts.at)
}

// resolve returns row's sweeps as this call plays them: copies of the table's
// with machine, graphs and played thread counts filled in.
func (c *call) resolve(row *experiment) []*sweep {
	list := row.sweeps
	if row.perKNF != nil {
		list = row.perKNF(c.knf)
	}
	resolved := slices.Clone(list)
	out := make([]*sweep, len(list))
	for i := range resolved {
		sw := &resolved[i]
		sw.m = c.knf
		if sw.on != nil {
			sw.m = sw.on(c.knf, c.host)
		}
		if sw.threads = slices.Clone(sw.threads); sw.threads == nil {
			sw.threads = ThreadSweep()
		}
		sw.played = sw.threads
		if sw.clamp {
			sw.played = make([]int, len(sw.threads))
			for j, t := range sw.threads {
				sw.played[j] = min(t, sw.m.MaxThreads())
			}
		}
		switch {
		case sw.src == rmat:
			sw.gis = []int{0}
		case sw.only != "":
			sw.gis = []int{c.s.indexOf(sw.only)}
		case c.every == nil:
			c.every = make([]int, len(c.s.Graphs))
			for gi := range c.every {
				c.every[gi] = gi
			}
			fallthrough
		default:
			sw.gis = c.every
		}
		out[i] = sw
	}
	return out
}

// runRows is the one runner behind All, ByID and RunMany. It walks the trace
// keys of the experiments ids name in first-use order: a key's trace set is
// built once, every cell of every sweep that reads it is played as one claim
// sequence (sweep by sweep in report order, baselines first in each), and the
// set is dropped before the next key. Each experiment is then assembled from
// its sweeps in its own order. An unknown id, or a panic in an experiment's
// own code, leaves an annotated placeholder.
func runRows(ids []string, s *Suite, knf, host *mic.Machine) []*Experiment {
	s, dismiss := s.staffed()
	defer dismiss()
	c := &call{s: s, knf: knf, host: host}
	exps := make([]*Experiment, len(ids))
	sweeps := make([][]*sweep, len(ids))
	var keys []traceKey
	var readers [][]*sweep // by key: the sweeps that read it, in report order
	for i, id := range ids {
		if row := find(id); row == nil {
			exps[i] = placeholder(id, fmt.Errorf("core: unknown experiment %q", id))
		} else if err := contain("experiment", func() { sweeps[i] = c.resolve(row) }); err != nil {
			exps[i] = placeholder(id, err)
		}
		for _, sw := range sweeps[i] {
			j := slices.Index(keys, sw.key())
			if j < 0 {
				j, keys, readers = len(keys), append(keys, sw.key()), append(readers, nil)
			}
			readers[j] = append(readers[j], sw)
		}
	}
	for j, k := range keys {
		c.runKey(k, readers[j])
	}
	for i, id := range ids {
		if exps[i] != nil {
			continue
		}
		row := find(id)
		exps[i] = &Experiment{ID: row.id, Title: row.title, Notes: row.notes}
		if err := contain("experiment", func() { row.assembleOn(exps[i], c, sweeps[i]) }); err != nil {
			exps[i] = placeholder(row.id, err)
		}
	}
	return exps
}

// assembleOn books row's sweeps on e in the row's order: each best-config
// sweep's curves, the model curve, then the row's assembly of its runs.
func (row *experiment) assembleOn(e *Experiment, c *call, sweeps []*sweep) {
	var runs []run
	for _, sw := range sweeps {
		if sw.self {
			runs = append(runs, e.runs(c.s.Harness, sw)...)
		} else {
			e.best(c.s.Harness, sw)
		}
	}
	if row.model {
		e.Series = append(e.Series, c.model("Model", sweeps[0], true))
	}
	if row.assemble == nil {
		e.curves(runs)
	} else {
		row.assemble(e, c, runs)
	}
}
