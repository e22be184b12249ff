package serve

import (
	"context"
	"fmt"

	"micgraph/internal/core"
	"micgraph/internal/graph"
	"micgraph/internal/graphio"
	"micgraph/internal/kernels"
	"micgraph/internal/telemetry"
)

// Stream line shapes. Every line carries "type" so clients can demultiplex
// a job's JSONL: kernel jobs emit one "result" line (kernels.ResultLine)
// plus a "counters" line; sweep jobs emit one "experiment" line per
// experiment followed by its "cell" lines (core.CellTelemetry records,
// each embedding the simulator's per-cell mic.SimStats).
type countersLine struct {
	Type     string             `json:"type"` // "counters"
	Counters telemetry.Snapshot `json:"counters"`
}

// ExperimentLine is the "experiment" record of a sweep job's stream: the
// experiment's identity, series and table rows — everything core.WriteSVG
// needs — with its cell telemetry following as separate "cell" lines.
type ExperimentLine struct {
	Type   string          `json:"type"` // "experiment"
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Series []core.Series   `json:"series,omitempty"`
	Rows   []core.TableRow `json:"rows,omitempty"`
	Notes  string          `json:"notes,omitempty"`
	Errors []string        `json:"errors,omitempty"`
}

// CellLine is one "cell" record: core.WriteJSON's per-cell telemetry shape
// (series, graph, threads, simulated time, mic.SimStats) streamed one line
// per cell as the sweep produces it.
type CellLine struct {
	Type string `json:"type"` // "cell"
	core.CellTelemetry
}

// runJob executes one admitted job on worker w, streaming result lines
// into j.Result. Panics — the runner's own or ones that escape kernel
// containment — are converted to errors, so a poisoned job can never take
// the daemon down.
func (s *Server) runJob(ctx context.Context, w int, j *Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("serve: job panicked: %w", e)
			} else {
				err = fmt.Errorf("serve: job panicked: %v", r)
			}
		}
	}()
	if s.hookExec != nil && s.hookExec(ctx, j) {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	switch j.Spec.Kind {
	case KindSweep:
		return s.runSweep(ctx, j)
	case KindExport:
		return s.runExport(ctx, j)
	default:
		return s.runKernel(ctx, w, j)
	}
}

// exportLine is the "result" record of an export job.
type exportLine struct {
	Type     string `json:"type"` // "result"
	Kind     string `json:"kind"` // "export"
	Graph    string `json:"graph"`
	Output   string `json:"output"`
	Format   string `json:"format"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
}

// runExport loads the job's graph through the cache and serialises it to
// the requested path. The write goes through the daemon's injector
// (-fault-write-rate), which exercises graphio.WriteFile's atomic-replace
// failure path: a fault-injected export fails the job and leaves the
// destination untouched — either its previous contents or the complete new
// serialization, never a truncated file.
func (s *Server) runExport(ctx context.Context, j *Job) error {
	t := j.now()
	g, err := s.loadGraph(ctx, j.Spec.Graph)
	j.addCache(j.now().Sub(t))
	if err != nil {
		return err
	}
	format := graphio.DetectFormat(j.Spec.Output)
	name := j.Spec.Format
	if name != "" {
		if format, err = graphio.ParseFormat(name); err != nil {
			return err // unreachable; normalize() validated it
		}
	} else {
		switch format {
		case graphio.Binary:
			name = "bin"
		case graphio.EdgeList:
			name = "el"
		default:
			name = "mtx"
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t = j.now()
	err = graphio.WriteFile(j.Spec.Output, g, format, s.cfg.Injector)
	j.addExec(j.now().Sub(t))
	if err != nil {
		return err
	}
	t = j.now()
	err = j.Result.WriteLine(exportLine{
		Type: "result", Kind: KindExport, Graph: g.String(),
		Output: j.Spec.Output, Format: name,
		Vertices: g.NumVertices(), Edges: g.NumEdges(),
	})
	j.addFlush(j.now().Sub(t))
	return err
}

// loadGraph fetches the named graph through the cache; concurrent jobs on
// the same graph dedup to one graphio.Load. The daemon's injector (when
// armed) flows through every load, so an injected read error fails the job
// that drew it and is never cached.
func (s *Server) loadGraph(ctx context.Context, spec GraphSpec) (*graph.Graph, error) {
	v, err := s.cache.Get(ctx, spec.Key(), func(context.Context) (any, int64, error) {
		g, err := graphio.Load(spec.File, spec.Suite, spec.Scale, s.cfg.Injector)
		if err != nil {
			return nil, 0, err
		}
		return g, GraphBytes(g), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*graph.Graph), nil
}

// loadSuite fetches (or generates once) the experiment suite at the given
// scale. What sweeps derive from it — the shuffled copies and the level
// structures (12 bytes a vertex), which the suite builds once for all the
// jobs sharing it — is materialised inside the loader, so the cache's byte
// budget counts it.
func (s *Server) loadSuite(ctx context.Context, scale int) (*core.Suite, error) {
	v, err := s.cache.Get(ctx, SuiteKey(scale), func(context.Context) (any, int64, error) {
		suite, err := core.NewSuite(scale)
		if err != nil {
			return nil, 0, err
		}
		var bytes int64
		for i, g := range suite.Shuffled() {
			bytes += GraphBytes(g) + GraphBytes(suite.Graphs[i]) + 12*int64(len(suite.Levels(i).Level))
		}
		return suite, bytes, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Suite), nil
}

// runSweep runs the requested experiments against the shared cached suite
// under a per-job harness (deadline, per-cell telemetry) and streams
// experiments and cells as they complete.
func (s *Server) runSweep(ctx context.Context, j *Job) error {
	t := j.now()
	suite, err := s.loadSuite(ctx, j.Spec.SweepScale)
	j.addCache(j.now().Sub(t))
	if err != nil {
		return err
	}
	js := suite.WithHarness(&core.Harness{Ctx: ctx, Telemetry: true})
	ids := j.Spec.Experiments
	if len(ids) == 0 {
		ids = core.AllIDs()
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		t = j.now()
		exp, err := core.ByID(id, js, s.cfg.KNF, s.cfg.Host)
		j.addExec(j.now().Sub(t))
		if err != nil {
			return err // unknown ID; normalize() should have caught it
		}
		line := ExperimentLine{
			Type: "experiment", ID: exp.ID, Title: exp.Title,
			Series: exp.Series, Rows: exp.Rows, Notes: exp.Notes,
		}
		for _, ce := range exp.Errors {
			line.Errors = append(line.Errors, ce.Error())
		}
		t = j.now()
		err = j.Result.WriteLine(line)
		if err == nil {
			for _, cell := range exp.Cells {
				if err = j.Result.WriteLine(CellLine{Type: "cell", CellTelemetry: cell}); err != nil {
					break
				}
			}
		}
		j.addFlush(j.now().Sub(t))
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// kernelParams maps the spec onto the table's default parameters. On the
// wire a source of 0, like an absent one, means |V|/2.
func (sp JobSpec) kernelParams(g *graph.Graph) kernels.Params {
	p := kernels.Defaults()
	p.Chunk, p.Iters = sp.Chunk, sp.Iters
	src := sp.Source
	if src == 0 {
		src = -1
	}
	p.Source = kernels.Source(g, src)
	return p
}

// runKernel runs one kernel job on worker w's resident runtime and streams
// the result plus a scheduler-counter snapshot. Coloring and components
// answers are validated before they are reported. BFS and irregular ones
// are not: the check would double their cost and move the service rates
// the serve-mix benchmark tracks.
func (s *Server) runKernel(ctx context.Context, w int, j *Job) error {
	t := j.now()
	g, err := s.loadGraph(ctx, j.Spec.Graph)
	j.addCache(j.now().Sub(t))
	if err != nil {
		return err
	}
	entry, ok := kernels.Lookup(j.Spec.Kind, j.Spec.Variant)
	if !ok {
		return fmt.Errorf("serve: unknown %s variant %q", j.Spec.Kind, j.Spec.Variant)
	}
	p := j.Spec.kernelParams(g)

	// The exec span covers the run, the validation and the line's summary
	// passes, without overlapping the cache span before it or the flush
	// span after it.
	t = j.now()
	out, err := entry.Run(ctx, s.rts[w], g, p)
	if err == nil && (entry.Kind == kernels.Coloring || entry.Kind == kernels.Components) {
		if err = entry.Validate(g, p, out); err != nil {
			err = fmt.Errorf("serve: %s invalid: %w", entry.Kind, err)
		}
	}
	var line kernels.ResultLine
	if err == nil {
		line = out.Line(entry, g.String(), p)
	}
	j.addExec(j.now().Sub(t))
	if err != nil {
		return err
	}

	t = j.now()
	err = j.Result.WriteLine(line)
	if err == nil {
		err = j.Result.WriteLine(countersLine{Type: "counters", Counters: s.counters.Snapshot()})
	}
	j.addFlush(j.now().Sub(t))
	return err
}
