// Package kernels is the one table of what the system can run: every
// kind×variant pair of the paper's experiment matrix (§IV — three kernels
// × three runtimes × queue/claim variants, plus components), each bound to
// the Scratch method that runs it, the oracle check that validates it
// and the result line it reports. The daemon, the CLIs, the load and chaos
// generators and the differential oracle all iterate or look up this table
// instead of spelling variant names themselves; adding a variant is one
// entry here.
package kernels

import (
	"context"
	"fmt"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/graph"
	"micgraph/internal/irregular"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// Kernel kinds.
const (
	BFS        = "bfs"
	Coloring   = "coloring"
	Components = "components"
	Irregular  = "irregular"
)

// Seq is the variant name of a kind's sequential twin, the baseline the
// paper's speedups are measured against.
const Seq = "seq"

// Runtime is one caller's resident scheduler engine and kernel scratches.
// The scratches make repeat runs allocation-free in steady state (the
// kerneltest alloc gates pin that); they are single-run, so a Runtime serves
// one kernel at a time.
type Runtime struct {
	// Team is the one engine every entry runs on: loop kernels take it as a
	// *sched.Team, task kernels as a *sched.Pool, the same value.
	Team *sched.Team
	BFS  *bfs.Scratch
	Col  *coloring.Scratch
	Cmp  *components.Scratch
}

// NewRuntime starts an engine of the given size with empty scratches:
// workers − 1 goroutines, because the caller of each region works as its
// worker 0. Release it with Close.
func NewRuntime(workers int) *Runtime {
	return &Runtime{
		Team: sched.NewTeam(workers),
		BFS:  bfs.NewScratch(),
		Col:  coloring.NewScratch(),
		Cmp:  components.NewScratch(),
	}
}

// SetCounters points the engine at a counter set (nil = off).
func (rt *Runtime) SetCounters(c *telemetry.Counters) { rt.Team.SetCounters(c) }

// Close stops the engine.
func (rt *Runtime) Close() { rt.Team.Close() }

// Params is everything a table entry reads besides the graph. Entries
// ignore the fields their kernel has no use for.
type Params struct {
	Source      int32             // bfs source vertex, resolved by Source
	Chunk       int               // team chunk, cilk/tbb grain and block-queue block size
	Iters       int               // irregular averaging iterations
	Policy      sched.Policy      // team loop schedule
	Partitioner sched.Partitioner // tbb range partitioner
}

// Defaults returns the table's default parameters, the configuration the
// paper reports: chunk 100, 5 irregular iterations, dynamic team loops and
// the simple partitioner. The source is the graph's: see Source.
func Defaults() Params {
	return Params{Chunk: 100, Iters: 5, Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner}
}

// Source resolves a requested bfs source on g: src when it is a vertex of
// g, else |V|/2 as in the paper.
func Source(g *graph.Graph, src int) int32 {
	if src < 0 || src >= g.NumVertices() {
		return int32(g.NumVertices() / 2)
	}
	return int32(src)
}

// TeamOpts is the team-loop configuration the parameters select.
func (p Params) TeamOpts() sched.ForOptions {
	return sched.ForOptions{Policy: p.Policy, Chunk: p.Chunk}
}

// Outcome is a run's result; only the field of the entry's kind is set.
// Slices alias the Runtime's scratches, valid until its next run.
type Outcome struct {
	BFS        bfs.HybridResult // direction counts are zero unless the variant is hybrid
	Coloring   coloring.Result
	Components components.Result
	State      []float64 // irregular output state
}

// RunFunc runs one kernel on rt's resident state. It returns the partial
// outcome alongside a cancellation or contained-panic error.
type RunFunc func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error)

// Entry is one runnable kind×variant pair.
type Entry struct {
	Kind    string
	Variant string
	Default bool // the variant a job or CLI gets when it names none
	Run     RunFunc
}

func bfsOutcome(res bfs.Result, err error) (Outcome, error) {
	return Outcome{BFS: bfs.HybridResult{Result: res}}, err
}

func colOutcome(res coloring.Result, err error) (Outcome, error) {
	return Outcome{Coloring: res}, err
}

func cmpOutcome(res components.Result, err error) (Outcome, error) {
	return Outcome{Components: res}, err
}

func irrOutcome(state []float64, err error) (Outcome, error) {
	return Outcome{State: state}, err
}

func ompBlock(relaxed bool) RunFunc {
	return func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return bfsOutcome(rt.BFS.BlockTeam(ctx, g, p.Source, rt.Team, p.TeamOpts(), p.Chunk, relaxed))
	}
}

func tbbBlock(relaxed bool) RunFunc {
	return func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return bfsOutcome(rt.BFS.BlockTBB(ctx, g, p.Source, rt.Team, p.Partitioner, p.Chunk, p.Chunk, relaxed))
	}
}

// table lists the entries in the order help texts and generators show
// them. The arguments are the daemon's: its behaviour is the benchmarked
// one, and every other consumer follows it.
var table = []Entry{
	{BFS, Seq, false, func(_ context.Context, _ *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return bfsOutcome(bfs.Sequential(g, p.Source), nil)
	}},
	{BFS, "omp-block", false, ompBlock(false)},
	{BFS, "omp-block-relaxed", true, ompBlock(true)},
	{BFS, "tbb-block", false, tbbBlock(false)},
	{BFS, "tbb-block-relaxed", false, tbbBlock(true)},
	{BFS, "bag", false, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return bfsOutcome(rt.BFS.BagCilk(ctx, g, p.Source, rt.Team, p.Chunk))
	}},
	{BFS, "tls", false, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return bfsOutcome(rt.BFS.TLSTeam(ctx, g, p.Source, rt.Team, p.TeamOpts()))
	}},
	{BFS, "hybrid", false, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		res, err := rt.BFS.Hybrid(ctx, g, p.Source, rt.Team, p.TeamOpts(), bfs.HybridConfig{})
		return Outcome{BFS: res}, err
	}},

	{Coloring, Seq, false, func(_ context.Context, _ *Runtime, g *graph.Graph, _ Params) (Outcome, error) {
		return colOutcome(coloring.SeqGreedy(g), nil)
	}},
	{Coloring, "openmp", true, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return colOutcome(rt.Col.ColorTeam(ctx, g, rt.Team, p.TeamOpts()))
	}},
	{Coloring, "cilk", false, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return colOutcome(rt.Col.ColorCilk(ctx, g, rt.Team, p.Chunk, coloring.CilkHolder))
	}},
	{Coloring, "tbb", false, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return colOutcome(rt.Col.ColorTBB(ctx, g, rt.Team, p.Partitioner, p.Chunk))
	}},

	{Components, Seq, false, func(_ context.Context, _ *Runtime, g *graph.Graph, _ Params) (Outcome, error) {
		return cmpOutcome(components.Sequential(g), nil)
	}},
	{Components, "labelprop", true, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return cmpOutcome(rt.Cmp.LabelPropagation(ctx, g, rt.Team, p.TeamOpts()))
	}},
	{Components, "pointerjump", false, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return cmpOutcome(rt.Cmp.PointerJumping(ctx, g, rt.Team, p.TeamOpts()))
	}},

	{Irregular, "openmp", true, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return irrOutcome(irregular.TeamCtx(ctx, g, irregular.InitialState(g.NumVertices()), p.Iters, rt.Team, p.TeamOpts()))
	}},
	{Irregular, "cilk", false, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return irrOutcome(irregular.CilkCtx(ctx, g, irregular.InitialState(g.NumVertices()), p.Iters, rt.Team, p.Chunk))
	}},
	{Irregular, "tbb", false, func(ctx context.Context, rt *Runtime, g *graph.Graph, p Params) (Outcome, error) {
		return irrOutcome(irregular.TBBCtx(ctx, g, irregular.InitialState(g.NumVertices()), p.Iters, rt.Team, p.Partitioner, p.Chunk))
	}},
}

// Table returns every entry, kinds grouped, in table order.
func Table() []Entry { return table }

// Lookup finds the entry of a kind×variant pair.
func Lookup(kind, variant string) (Entry, bool) {
	for _, e := range table {
		if e.Kind == kind && e.Variant == variant {
			return e, true
		}
	}
	return Entry{}, false
}

// Default returns the default variant of kind, "" when kind is not a
// kernel kind.
func Default(kind string) string {
	for _, e := range table {
		if e.Kind == kind && e.Default {
			return e.Variant
		}
	}
	return ""
}

// Validate checks out against the kind's oracle. BFS levels are compared
// with a fresh graph.Levels search (bfs.Validate), not with the twin, and
// irregular states with a fresh irregular.Sequential run. Colors are checked against the edges, each once
// from its higher end, as a loop on rt's engine under p.TeamOpts()
// (coloring.Scratch.Check): its chunk claims are the engine's fault sites
// and book into its counters, and a contained panic or a cancellation of ctx
// comes back as the loop returned it, not as a bad coloring. Components
// labels must equal the component minima (graph.CheckComponentLabels), which
// the graph computes on its first check and keeps, so that check is one pass
// over the labels, not a second run of the Sequential twin.
func (e Entry) Validate(ctx context.Context, rt *Runtime, g *graph.Graph, p Params, out Outcome) error {
	switch e.Kind {
	case BFS:
		return bfs.Validate(g, p.Source, out.BFS.Levels)
	case Coloring:
		return rt.Col.Check(ctx, g, out.Coloring.Colors, rt.Team, p.TeamOpts())
	case Components:
		return components.Validate(g, out.Components.Labels)
	default:
		// Every runtime applies the same per-vertex update to the same
		// frozen input, so the outputs are equal bit for bit.
		want := irregular.Sequential(g, irregular.InitialState(g.NumVertices()), p.Iters)
		if len(out.State) != len(want) {
			return fmt.Errorf("irregular: %d states for %d vertices", len(out.State), len(want))
		}
		if d := irregular.MaxAbsDiff(want, out.State); d != 0 {
			return fmt.Errorf("irregular: state differs from the sequential kernel by %g", d)
		}
		return nil
	}
}

// ResultLine is the "result" record a kernel job streams. Every line
// carries "type" so clients can demultiplex a job's JSONL.
type ResultLine struct {
	Type       string  `json:"type"` // "result"
	Kind       string  `json:"kind"`
	Graph      string  `json:"graph"`
	Variant    string  `json:"variant,omitempty"`
	NumLevels  int     `json:"levels,omitempty"`
	Reached    int     `json:"reached,omitempty"`
	Processed  int64   `json:"processed,omitempty"`
	Duplicates int64   `json:"duplicates,omitempty"`
	NumColors  int     `json:"colors,omitempty"`
	Rounds     int     `json:"rounds,omitempty"`
	Conflicts  []int   `json:"conflicts,omitempty"`
	Components int     `json:"components,omitempty"`
	TDLevels   int     `json:"td_levels,omitempty"`
	BULevels   int     `json:"bu_levels,omitempty"`
	Iters      int     `json:"iters,omitempty"`
	Checksum   float64 `json:"checksum,omitempty"`
}

// Line summarises the outcome of running e on the named graph.
func (o Outcome) Line(e Entry, graphName string, p Params) ResultLine {
	line := ResultLine{Type: "result", Kind: e.Kind, Graph: graphName, Variant: e.Variant}
	switch e.Kind {
	case BFS:
		// The widths were counted where the run claimed its vertices, so
		// their sum is the reached count without a pass over the levels.
		for _, w := range o.BFS.Widths {
			line.Reached += int(w)
		}
		line.NumLevels = o.BFS.NumLevels
		line.Processed = o.BFS.Processed
		line.Duplicates = o.BFS.Duplicates
		line.TDLevels = o.BFS.TopDownLevels
		line.BULevels = o.BFS.BottomUpLevels
	case Coloring:
		line.NumColors = o.Coloring.NumColors
		line.Rounds = o.Coloring.Rounds
		line.Conflicts = o.Coloring.Conflicts
	case Components:
		line.Components = o.Components.Count
		line.Rounds = o.Components.Rounds
	default:
		for _, v := range o.State {
			line.Checksum += v
		}
		line.Iters = p.Iters
	}
	return line
}
