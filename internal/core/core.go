// Package core is the experiment engine: it reproduces every table and
// figure of the paper's evaluation (§V) by generating the graph suite,
// building kernel cost traces, sweeping thread counts on the simulated
// machines, and reporting speedup series exactly as the paper does —
// per-graph speedups against the fastest 1-thread configuration, combined
// across graphs by geometric mean.
package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"micgraph/internal/coloring"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/mic"
)

// ThreadSweep returns the paper's x-axis: 1 to 121 threads in increments of
// 10 ("a number of threads from 1 to 121 by increment of 10", §V-B).
func ThreadSweep() []int {
	out := append(make([]int, 0, 13), 1)
	for t := 11; t <= 121; t += 10 {
		out = append(out, t)
	}
	return out
}

// HostSweep returns the host x-axis for Figure 4(d): 1..24 threads.
func HostSweep() []int {
	out := make([]int, 24)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Series is one curve of a figure.
type Series struct {
	Label   string    `json:"label"`
	Threads []int     `json:"threads"`
	Values  []float64 `json:"values"`
}

// Peak returns the maximum value and the thread count where it occurs.
func (s *Series) Peak() (threads int, value float64) {
	for i, v := range s.Values {
		if v > value {
			value = v
			threads = s.Threads[i]
		}
	}
	return
}

// At returns the series value at the given thread count (0 if absent).
func (s *Series) At(t int) float64 {
	for i, th := range s.Threads {
		if th == t {
			return s.Values[i]
		}
	}
	return 0
}

// Experiment is one reproduced table or figure.
type Experiment struct {
	ID     string // "table1", "fig1a", ... "fig4d"
	Title  string
	Series []Series
	Rows   []TableRow // table experiments only
	Notes  string

	// Errors annotates cells (or the whole experiment) that failed under
	// the harness's containment; see Harness. Empty on a clean run.
	Errors []CellError

	// Cells carries the per-cell simulator telemetry of the sweep. Filled
	// only when the suite's Harness has Telemetry enabled; empty otherwise.
	Cells []CellTelemetry
}

// TableRow is one line of Table I.
type TableRow struct {
	Name     string
	V        int
	E        int64
	MaxDeg   int
	Colors   int
	Levels   int
	PaperCol int
	PaperLev int
}

// GeoMean returns the geometric mean of xs (0 if any x <= 0 or empty).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Suite holds the generated stand-in graphs shared by all experiments; it
// comes from NewSuite.
type Suite struct {
	Scale   int
	Configs []gen.MeshConfig
	Graphs  []*graph.Graph

	// Harness controls cancellation and failure containment for all
	// experiments run against this suite. Nil (the default) means no
	// deadline and no per-cell telemetry; a cell that panics is still
	// contained and annotated.
	Harness *Harness

	derived *derived // shared by every WithHarness copy
}

// derived is what the experiments compute from the suite's graphs and keep:
// per graph, the shuffled copy of Figure 2, the BFS level structure from
// vertex |V|/2 and Table I's greedy color count, each built once, by whoever
// asks first, also between concurrent sweeps over one cached suite. The
// counters are the work gate's readings.
type derived struct {
	shuffled    []lazy[*graph.Graph]
	levels      []lazy[*mic.BFSLevels]
	colors      []lazy[int]
	levelsBuilt atomic.Int32 // level structures computed so far
	colorings   atomic.Int32 // greedy colorings run so far
	traceSets   atomic.Int32 // trace sets built so far, one per trace key a call reads
}

// lazy is a value built on first use.
type lazy[T any] struct {
	once sync.Once
	v    T
}

func (l *lazy[T]) get(build func() T) T {
	l.once.Do(func() { l.v = build() })
	return l.v
}

// NewSuite generates the seven Table I stand-ins at the given linear scale
// (1 = the paper's sizes).
func NewSuite(scale int) (*Suite, error) {
	graphs, configs, err := gen.GenerateSuite(scale)
	if err != nil {
		return nil, err
	}
	return &Suite{Scale: scale, Configs: configs, Graphs: graphs, derived: &derived{
		shuffled: make([]lazy[*graph.Graph], len(graphs)),
		levels:   make([]lazy[*mic.BFSLevels], len(graphs)),
		colors:   make([]lazy[int], len(graphs))}}, nil
}

// Shuffled returns the randomly relabeled copies used by Figure 2, created
// on first use and cached.
func (s *Suite) Shuffled() []*graph.Graph {
	out := make([]*graph.Graph, len(s.Graphs))
	for i := range out {
		out[i] = s.shuffledGraph(i)
	}
	return out
}

func (s *Suite) shuffledGraph(i int) *graph.Graph {
	return s.derived.shuffled[i].get(func() *graph.Graph { return s.Graphs[i].Shuffled(uint64(1000 + i)) })
}

// Levels returns the BFS level structure of suite graph i from vertex |V|/2 —
// the source of Table I, of every Figure 4 trace and of the §III-C model
// curve — computed on first use and cached. Read-only to every caller.
func (s *Suite) Levels(i int) *mic.BFSLevels {
	return s.derived.levels[i].get(func() *mic.BFSLevels {
		s.derived.levelsBuilt.Add(1)
		return mic.NewBFSLevels(s.Graphs[i], int32(s.Graphs[i].NumVertices()/2))
	})
}

// greedyColors returns the number of colors sequential greedy coloring gives
// suite graph i (Table I), computed on first use and cached.
func (s *Suite) greedyColors(i int) int {
	return s.derived.colors[i].get(func() int {
		s.derived.colorings.Add(1)
		return coloring.SeqGreedy(s.Graphs[i]).NumColors
	})
}

// WithHarness returns a shallow copy of the suite bound to h: it shares the
// generated graphs and everything derived from them with the receiver but
// carries its own harness, so concurrent sweeps over one cached suite can each
// run under their own deadline, retry budget and telemetry sink without racing
// on the shared Harness field. The shared graphs are read-only to every
// experiment.
func (s *Suite) WithHarness(h *Harness) *Suite {
	out := *s
	out.Harness = h
	return &out
}

// Find returns the suite graph with the given base name (e.g. "pwtk").
func (s *Suite) Find(name string) (*graph.Graph, gen.MeshConfig, error) {
	for i, cfg := range s.Configs {
		if base, _, _ := strings.Cut(cfg.Name, "/"); base == name {
			return s.Graphs[i], cfg, nil
		}
	}
	return nil, gen.MeshConfig{}, fmt.Errorf("core: no suite graph %q", name)
}

// indexOf is Find for the experiments' own graph names: the index, or a panic.
func (s *Suite) indexOf(name string) int {
	g, _, err := s.Find(name)
	if err != nil {
		panic(err)
	}
	return slices.Index(s.Graphs, g)
}
