// colorgraph colors a graph with the iterative parallel speculative
// algorithm under a chosen runtime, validates the result, and reports the
// color count, round count and per-round conflicts.
//
//	colorgraph -graph pwtk -scale 4 -runtime openmp -policy dynamic -chunk 100 -workers 8
//	colorgraph -file data/g.mtx -runtime tbb -partitioner simple
//	colorgraph -graph hood -runtime cilk -d2      # distance-2 variant
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"micgraph/internal/coloring"
	"micgraph/internal/core"
	"micgraph/internal/graphio"
	"micgraph/internal/kernels"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

func main() {
	var (
		file     = flag.String("file", "", "graph file (.mtx or .bin)")
		name     = flag.String("graph", "", "builtin suite graph name (e.g. pwtk)")
		scale    = flag.Int("scale", 4, "suite shrink factor for -graph")
		runtimes = strings.Join(kernels.Variants(kernels.Coloring), ", ")
		runtime  = flag.String("runtime", kernels.Default(kernels.Coloring), runtimes)
		policy   = flag.String("policy", "dynamic", "openmp policy: static, dynamic, guided")
		part     = flag.String("partitioner", "simple", "tbb partitioner: simple, auto, affinity")
		chunk    = flag.Int("chunk", 100, "chunk/grain size")
		workers  = flag.Int("workers", 4, "worker goroutines")
		shuffle  = flag.Bool("shuffle", false, "randomly relabel vertices first (the Figure 2 setup)")
		d2       = flag.Bool("d2", false, "distance-2 coloring (sequential or openmp only)")
		timeout  = flag.Duration("timeout", 0, "abort the coloring after this long (0 = no deadline)")
		metrics  = flag.String("metrics-out", "", "write per-round phase metrics and scheduler counters as JSONL to `file`")
		prof     core.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "colorgraph:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "colorgraph:", err)
		}
		os.Exit(code)
	}

	entry, ok := kernels.Lookup(kernels.Coloring, *runtime)
	if !ok {
		fmt.Fprintf(os.Stderr, "colorgraph: unknown runtime %q (want one of: %s)\n", *runtime, runtimes)
		exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var rec *telemetry.MemRecorder
	var counters *telemetry.Counters
	if *metrics != "" {
		rec = telemetry.NewMemRecorder()
		ctx = telemetry.WithRecorder(ctx, rec)
		counters = telemetry.NewCounters(*workers)
	}

	g, err := graphio.Load(*file, *name, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "colorgraph:", err)
		exit(1)
	}
	if *shuffle {
		g = g.Shuffled(1)
	}
	fmt.Printf("graph: %s\n", g)

	rt := kernels.NewRuntime(*workers)
	defer rt.Close()
	rt.SetCounters(counters)
	p := kernels.Params{Chunk: *chunk, Policy: parsePolicy(*policy), Partitioner: parsePartitioner(*part)}
	start := time.Now()
	var res coloring.Result
	var runErr error
	switch {
	case *d2 && *runtime == kernels.Seq:
		res = coloring.SeqGreedyD2(g)
	case *d2:
		res = coloring.ColorTeamD2(g, rt.Team, p.TeamOpts())
	default:
		var out kernels.Outcome
		out, runErr = entry.Run(ctx, rt, g, p)
		res = out.Coloring
	}
	elapsed := time.Since(start)
	if *metrics != "" {
		if err := writeMetrics(*metrics, g.String(), *runtime, *workers, elapsed, rec, counters); err != nil {
			fmt.Fprintln(os.Stderr, "colorgraph:", err)
			exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "colorgraph: aborted after %v (%d rounds done): %v\n",
			elapsed.Round(time.Microsecond), res.Rounds, runErr)
		exit(1)
	}

	validate := coloring.Validate
	if *d2 {
		validate = coloring.ValidateD2
	}
	if err := validate(g, res.Colors); err != nil {
		fmt.Fprintln(os.Stderr, "colorgraph: INVALID COLORING:", err)
		exit(1)
	}
	fmt.Printf("colors: %d  rounds: %d  conflicts/round: %v  time: %v  (valid)\n",
		res.NumColors, res.Rounds, res.Conflicts, elapsed.Round(time.Microsecond))
	exit(0)
}

// writeMetrics dumps one run's telemetry as JSONL: a run header, one line
// per coloring round, and the scheduler counter snapshot.
func writeMetrics(path, graph, runtime string, workers int, elapsed time.Duration,
	rec *telemetry.MemRecorder, counters *telemetry.Counters) error {
	out, err := telemetry.CreateJSONL(path)
	if err != nil {
		return err
	}
	type runRecord struct {
		Record  string `json:"record"`
		Cmd     string `json:"cmd"`
		Graph   string `json:"graph"`
		Runtime string `json:"runtime"`
		Workers int    `json:"workers"`
		TimeNS  int64  `json:"time_ns"`
	}
	type phaseRecord struct {
		Record string `json:"record"`
		telemetry.PhaseSample
	}
	type counterRecord struct {
		Record string `json:"record"`
		telemetry.Snapshot
	}
	if err := out.Write(runRecord{"run", "colorgraph", graph, runtime, workers, elapsed.Nanoseconds()}); err != nil {
		out.Close()
		return err
	}
	for _, s := range rec.Samples() {
		if err := out.Write(phaseRecord{"phase", s}); err != nil {
			out.Close()
			return err
		}
	}
	if err := out.Write(counterRecord{"counters", counters.Snapshot()}); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func parsePolicy(s string) sched.Policy {
	switch s {
	case "static":
		return sched.Static
	case "guided":
		return sched.Guided
	default:
		return sched.Dynamic
	}
}

func parsePartitioner(s string) sched.Partitioner {
	switch s {
	case "auto":
		return sched.AutoPartitioner
	case "affinity":
		return sched.AffinityPartitioner
	default:
		return sched.SimplePartitioner
	}
}
