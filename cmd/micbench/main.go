// micbench regenerates the paper's tables and figures on the simulated
// machines. Examples:
//
//	micbench -exp all            # every table and figure, paper-scale graphs
//	micbench -exp fig2 -scale 4  # one figure on 16x smaller graphs (fast)
//	micbench -exp fig4c -csv out.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"micgraph/internal/core"
	"micgraph/internal/fault"
	"micgraph/internal/graph"
	"micgraph/internal/mic"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

func main() {
	var (
		expID   = flag.String("exp", "all", "experiments, comma-separated: all (the paper's), ablations, or ids; none alone for trace-only runs; ids: "+strings.Join(core.AllIDs(), ", "))
		scale   = flag.Int("scale", 1, "linear shrink factor for the graph suite (1 = paper sizes)")
		csvPath = flag.String("csv", "", "also write results as CSV to this file (one file, experiments concatenated)")
		svgDir  = flag.String("svg", "", "also write one SVG figure per experiment into this directory")
		machine = flag.String("machine", "", "JSON file overriding the KNF machine description (see mic.SaveMachine)")
		quiet   = flag.Bool("q", false, "suppress progress messages")
		timeout = flag.Duration("timeout", 0, "overall deadline for the sweep; experiments past it are annotated, not run (0 = none)")

		stragRate = flag.Float64("straggler-rate", 0, "fault injection: probability each simulated MIC core straggles")
		stragSlow = flag.Float64("straggler-slow", 0.5, "fault injection: slowdown fraction of a straggling core")
		stragSeed = flag.Uint64("straggler-seed", 1, "fault injection: deterministic injector seed")

		jsonPath   = flag.String("json", "", "also write results (with per-cell telemetry) as JSON to this file")
		metricsOut = flag.String("metrics-out", "", "write per-cell simulator telemetry as JSONL to `file`")

		traceOut     = flag.String("trace-out", "", "simulate one kernel run and write its timeline as Chrome trace-event JSON to `file` (open in ui.perfetto.dev)")
		traceKernel  = flag.String("trace-kernel", "bfs", "trace mode kernel: bfs, coloring, irregular (5 iterations)")
		traceGraph   = flag.String("trace-graph", "pwtk", "trace mode suite graph name")
		traceThreads = flag.Int("trace-threads", 121, "trace mode thread count")
		traceConfig  = flag.String("trace-config", "omp-dynamic", "trace mode runtime: omp-static, omp-dynamic, omp-guided, cilk, tbb-simple, tbb-auto, tbb-affinity")
		traceChunk   = flag.Int("trace-chunk", 100, "trace mode chunk/grain size")

		prof core.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "micbench:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
		}
		os.Exit(code)
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	logf("generating graph suite at scale %d ...", *scale)
	suite, err := core.NewSuite(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "micbench:", err)
		exit(1)
	}
	logf("suite ready in %v", time.Since(start).Round(time.Millisecond))

	wantTelemetry := *jsonPath != "" || *metricsOut != ""
	if *timeout > 0 || wantTelemetry {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		suite.Harness = &core.Harness{Ctx: ctx, Telemetry: wantTelemetry}
	}

	knf := mic.KNF()
	host := mic.HostXeon()
	if *machine != "" {
		f, err := os.Open(*machine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
			exit(1)
		}
		knf, err = mic.LoadMachine(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
			exit(1)
		}
		logf("using custom machine %q (%d cores x %d SMT)", knf.Name, knf.Cores, knf.SMTWays)
	}

	if *stragRate > 0 {
		if *stragSlow < 0 {
			fmt.Fprintln(os.Stderr, "micbench: -straggler-slow must be >= 0")
			exit(1)
		}
		in := fault.New(*stragSeed).
			Enable("mic/straggler", *stragRate).
			SetParam("mic/straggler", *stragSlow)
		knf = knf.WithStragglers(in)
		logf("fault injection: %d/%d MIC cores straggling at %.0f%% slowdown (seed %d)",
			in.Fired("mic/straggler"), knf.Cores, *stragSlow*100, *stragSeed)
	}

	if *traceOut != "" {
		if err := writeTrace(suite, knf, *traceOut, *traceKernel, *traceGraph,
			*traceConfig, *traceThreads, *traceChunk, logf); err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
			exit(1)
		}
	}

	if *expID == "none" || *expID == "" {
		if *traceOut == "" {
			fmt.Fprintln(os.Stderr, "micbench: -exp none without -trace-out does nothing")
			exit(2)
		}
		exit(0)
	}
	// RunMany contains per-experiment failures (panics, deadline) as error
	// annotations so one poisoned experiment doesn't take down the sweep.
	exps := core.RunMany(experimentIDs(*expID), suite, knf, host)

	var csv *os.File
	if *csvPath != "" {
		csv, err = os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
			exit(1)
		}
		defer csv.Close()
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
			exit(1)
		}
	}
	for _, e := range exps {
		if err := core.WriteText(os.Stdout, e); err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
			exit(1)
		}
		if csv != nil {
			fmt.Fprintf(csv, "# %s: %s\n", e.ID, e.Title)
			if err := core.WriteCSV(csv, e); err != nil {
				fmt.Fprintln(os.Stderr, "micbench:", err)
				exit(1)
			}
		}
		if *svgDir != "" && len(e.Series) > 0 {
			f, err := os.Create(filepath.Join(*svgDir, e.ID+".svg"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "micbench:", err)
				exit(1)
			}
			if err := core.WriteSVG(f, e); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "micbench:", err)
				exit(1)
			}
			f.Close()
		}
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
			exit(1)
		}
		err = core.WriteJSON(f, exps)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
			exit(1)
		}
	}
	if *metricsOut != "" {
		if err := writeCellMetrics(*metricsOut, exps); err != nil {
			fmt.Fprintln(os.Stderr, "micbench:", err)
			exit(1)
		}
	}
	failed := 0
	for _, e := range exps {
		failed += len(e.Errors)
	}
	logf("done in %v", time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "micbench: %d cell(s)/experiment(s) failed; see the !! annotations above\n", failed)
		exit(1)
	}
	exit(0)
}

// experimentIDs expands -exp's comma-separated list: all stands for the
// paper's experiments, ablations for the ablations, any other token is an id.
func experimentIDs(list string) []string {
	var ids []string
	for _, tok := range strings.Split(list, ",") {
		switch tok = strings.TrimSpace(tok); tok {
		case "all":
			ids = append(ids, core.IDs(core.GroupPaper)...)
		case "ablations":
			ids = append(ids, core.IDs(core.GroupAblation)...)
		default:
			ids = append(ids, tok)
		}
	}
	return ids
}

// writeCellMetrics dumps every sweep cell's simulator telemetry as JSONL,
// with one error record per !!-annotated cell so failed cells stay visible
// next to the successful ones.
func writeCellMetrics(path string, exps []*core.Experiment) error {
	out, err := telemetry.CreateJSONL(path)
	if err != nil {
		return err
	}
	type cellRecord struct {
		Record string `json:"record"`
		core.CellTelemetry
	}
	type errRecord struct {
		Record     string `json:"record"`
		Experiment string `json:"experiment"`
		Error      string `json:"error"`
	}
	for _, e := range exps {
		for _, c := range e.Cells {
			if err := out.Write(cellRecord{"cell", c}); err != nil {
				out.Close()
				return err
			}
		}
		for _, ce := range e.Errors {
			if err := out.Write(errRecord{"error", e.ID, ce.Error()}); err != nil {
				out.Close()
				return err
			}
		}
	}
	return out.Close()
}

// writeTrace simulates one kernel run on the (possibly straggler-injected)
// machine and writes the full per-core timeline as Chrome trace-event JSON.
func writeTrace(suite *core.Suite, m *mic.Machine, path, kernel, graphName,
	config string, threads, chunk int, logf func(string, ...any)) error {
	var g *graph.Graph
	for i, cfg := range suite.Configs {
		base, _, _ := strings.Cut(cfg.Name, "/")
		if cfg.Name == graphName || base == graphName {
			g = suite.Graphs[i]
			break
		}
	}
	if g == nil {
		var names []string
		for _, cfg := range suite.Configs {
			names = append(names, cfg.Name)
		}
		return fmt.Errorf("unknown -trace-graph %q (suite graphs: %s)",
			graphName, strings.Join(names, ", "))
	}

	var cfg mic.Config
	switch config {
	case "omp-static":
		cfg = mic.Config{Kind: mic.OpenMP, Policy: sched.Static, Chunk: chunk}
	case "omp-dynamic":
		cfg = mic.Config{Kind: mic.OpenMP, Policy: sched.Dynamic, Chunk: chunk}
	case "omp-guided":
		cfg = mic.Config{Kind: mic.OpenMP, Policy: sched.Guided, Chunk: chunk}
	case "cilk":
		cfg = mic.Config{Kind: mic.Cilk, Chunk: chunk}
	case "tbb-simple":
		cfg = mic.Config{Kind: mic.TBB, Partitioner: sched.SimplePartitioner, Chunk: chunk}
	case "tbb-auto":
		cfg = mic.Config{Kind: mic.TBB, Partitioner: sched.AutoPartitioner, Chunk: chunk}
	case "tbb-affinity":
		cfg = mic.Config{Kind: mic.TBB, Partitioner: sched.AffinityPartitioner, Chunk: chunk}
	default:
		return fmt.Errorf("unknown -trace-config %q", config)
	}

	var tr *mic.Trace
	switch kernel {
	case "bfs":
		tr = mic.BFSTrace(m, g, int32(g.NumVertices()/2), mic.NaturalOrder, mic.BFSBlockRelaxed, 0)
	case "coloring":
		tr = mic.ColoringTrace(m, g, mic.NaturalOrder, threads)
	case "irregular":
		tr = mic.IrregularTrace(m, g, mic.NaturalOrder, 5)
	default:
		return fmt.Errorf("unknown -trace-kernel %q", kernel)
	}

	tl := telemetry.NewTimeline(0)
	var st mic.SimStats
	cycles := mic.SimulateObserved(m, cfg, threads, tr, tl, &st)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tl.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	logf("trace: %s %s on %s, t=%d: %.0f cycles, %d phases, %d chunks (%d stolen, %d straggled), %d events (%d dropped) -> %s",
		kernel, config, graphName, threads, cycles, st.Phases, st.Chunks,
		st.Steals, st.StraggledChunks, tl.Len(), tl.Dropped(), path)
	return nil
}
