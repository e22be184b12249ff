// micrun runs one entry of the kernels table — any kind×variant pair the
// daemon accepts — on a graph, validates the answer against the kind's
// sequential oracle, and prints the result line micserved would stream for
// the same job.
//
//	micrun -kind bfs -variant hybrid -graph pwtk -scale 4 -workers 8
//	micrun -kind coloring -variant tbb -file data/g.mtx -partitioner auto
//	micrun -kind coloring -graph hood -d2        # distance-2 coloring
//	micrun -kind bfs -graph inline_1 -model      # §III-C achievable speedup
//	micrun -kind coloring -variant seq -graph pwtk -out pwtk.bin  # also save the graph
//
// Exit status: 0 valid result, 1 aborted run, invalid result or I/O error,
// 2 usage (no such table entry — reported before the graph is loaded).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"micgraph/internal/coloring"
	"micgraph/internal/core"
	"micgraph/internal/graph"
	"micgraph/internal/graphio"
	"micgraph/internal/kernels"
	"micgraph/internal/perfmodel"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// tableNames lists the kernels table, one kind per line.
func tableNames() string {
	var b strings.Builder
	kind := ""
	for _, e := range kernels.Table() {
		if e.Kind != kind {
			kind = e.Kind
			fmt.Fprintf(&b, "\n  %s:", kind)
		}
		b.WriteString(" " + e.Variant)
	}
	return b.String()
}

// byName finds, among the values of a sched enum, the one its String
// method names.
func byName[T fmt.Stringer](name string, values ...T) (T, bool) {
	for _, v := range values {
		if v.String() == name {
			return v, true
		}
	}
	var none T
	return none, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("micrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := kernels.Defaults()
	var (
		kind    = fs.String("kind", kernels.BFS, "kernel kind (the row names under -variant)")
		variant = fs.String("variant", "", "variant of the kind (default: the kind's default):"+tableNames())
		file    = fs.String("file", "", "graph file (.mtx, .bin or .el)")
		name    = fs.String("graph", "", "builtin suite graph name (e.g. pwtk)")
		scale   = fs.Int("scale", 4, "suite shrink factor for -graph")
		workers = fs.Int("workers", 4, "worker goroutines")
		source  = fs.Int("source", -1, "bfs source vertex (-1 = |V|/2 as in the paper)")
		chunk   = fs.Int("chunk", def.Chunk, "team chunk, cilk/tbb grain and block-queue block size")
		iters   = fs.Int("iters", def.Iters, "irregular averaging iterations")
		policy  = fs.String("policy", def.Policy.String(), "team loop schedule: static, dynamic, guided")
		part    = fs.String("partitioner", def.Partitioner.String(), "tbb partitioner: simple, auto, affinity")
		shuffle = fs.Bool("shuffle", false, "randomly relabel vertices first (the Figure 2 setup)")
		outFile = fs.String("out", "", "also write the graph, after -shuffle, to `file` (.mtx, .bin or .el)")
		d2      = fs.Bool("d2", false, "distance-2 coloring (coloring, sequential or team variant only)")
		model   = fs.Bool("model", false, "bfs: also print the §III-C achievable-speedup model")
		timeout = fs.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
		metrics = fs.String("metrics-out", "", "write per-phase metrics and scheduler counters as JSONL to `file`")
		prof    core.Profiling
	)
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	die := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "micrun: "+format+"\n", a...)
		return code
	}

	if *variant == "" {
		*variant = kernels.Default(*kind)
	}
	entry, ok := kernels.Lookup(*kind, *variant)
	if !ok {
		return die(2, "no %s variant %q; the table has:%s", *kind, *variant, tableNames())
	}
	p := kernels.Params{Chunk: *chunk, Iters: *iters}
	if p.Policy, ok = byName(*policy, sched.Static, sched.Dynamic, sched.Guided); !ok {
		return die(2, "unknown -policy %q", *policy)
	}
	if p.Partitioner, ok = byName(*part, sched.SimplePartitioner, sched.AutoPartitioner, sched.AffinityPartitioner); !ok {
		return die(2, "unknown -partitioner %q", *part)
	}
	if *workers < 1 {
		return die(2, "-workers must be at least 1")
	}
	if *model && entry.Kind != kernels.BFS {
		return die(2, "-model needs -kind %s", kernels.BFS)
	}
	runEntry, validate := entry.Run, entry.Validate
	if *d2 {
		// Distance-2 coloring is the one kernel run from here that is not a
		// table row. It has a sequential and a team form only (the team
		// runtime is coloring's default variant).
		seq := entry.Variant == kernels.Seq
		if entry.Kind != kernels.Coloring || !seq && !entry.Default {
			return die(2, "-d2 needs -kind %s -variant %s or %s", kernels.Coloring, kernels.Seq, kernels.Default(kernels.Coloring))
		}
		runEntry = func(ctx context.Context, rt *kernels.Runtime, g *graph.Graph, p kernels.Params) (kernels.Outcome, error) {
			if seq {
				return kernels.Outcome{Coloring: coloring.SeqGreedyD2(g)}, nil
			}
			res, err := rt.Col.ColorTeamD2(ctx, g, rt.Team, p.TeamOpts())
			return kernels.Outcome{Coloring: res}, err
		}
		validate = func(_ context.Context, _ *kernels.Runtime, g *graph.Graph, _ kernels.Params, out kernels.Outcome) error {
			return coloring.ValidateD2(g, out.Coloring.Colors)
		}
	}

	stopProf, err := prof.Start()
	if err != nil {
		return die(1, "%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			die(1, "%v", err)
		}
	}()

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

	g, err := graphio.Load(*file, *name, *scale, nil)
	if err != nil {
		return die(1, "%v", err)
	}
	if *shuffle {
		g = g.Shuffled(1)
	}
	if *outFile != "" {
		if err := graphio.WriteFile(*outFile, g, graphio.DetectFormat(*outFile), nil); err != nil {
			return die(1, "%v", err)
		}
	}
	p.Source = kernels.Source(g, *source)

	rt := kernels.NewRuntime(*workers)
	defer rt.Close()
	rt.SetCounters(counters)
	start := time.Now()
	out, runErr := runEntry(ctx, rt, g, p)
	elapsed := time.Since(start)
	if *metrics != "" {
		hdr := runRecord{"run", "micrun", g.String(), entry.Kind, entry.Variant, *workers, elapsed.Nanoseconds()}
		if err := writeMetrics(*metrics, hdr, rec, counters); err != nil {
			return die(1, "%v", err)
		}
	}
	if runErr != nil {
		return die(1, "%s/%s aborted after %v: %v", entry.Kind, entry.Variant, elapsed.Round(time.Microsecond), runErr)
	}
	if err := validate(context.Background(), rt, g, p, out); err != nil {
		return die(1, "INVALID %s result: %v", entry.Kind, err)
	}
	line, err := json.Marshal(out.Line(entry, g.String(), p))
	if err != nil {
		return die(1, "%v", err)
	}
	fmt.Fprintf(stdout, "%s\ntime: %v  (valid)\n", line, elapsed.Round(time.Microsecond))

	if *model {
		fmt.Fprintf(stdout, "achievable speedup (§III-C model, block = %d):\n", *chunk)
		for _, t := range []int{1, 2, 4, 8, 13, 16, 31, 62, 124} {
			fmt.Fprintf(stdout, "  t=%3d  %.2f\n", t, perfmodel.Speedup(out.BFS.Widths, t, *chunk))
		}
		fmt.Fprintf(stdout, "  t=inf  %.2f\n", perfmodel.UpperBound(out.BFS.Widths, *chunk))
	}
	return 0
}

// runRecord is the header line of a -metrics-out file.
type runRecord struct {
	Record  string `json:"record"`
	Cmd     string `json:"cmd"`
	Graph   string `json:"graph"`
	Kind    string `json:"kind"`
	Variant string `json:"variant"`
	Workers int    `json:"workers"`
	TimeNS  int64  `json:"time_ns"`
}

// writeMetrics dumps one run's telemetry as JSONL: the run header, one line
// per kernel phase the entry recorded (BFS level, coloring round, irregular
// sweep), and the scheduler counter snapshot.
func writeMetrics(path string, hdr runRecord, rec *telemetry.MemRecorder, counters *telemetry.Counters) error {
	type phaseRecord struct {
		Record string `json:"record"`
		telemetry.PhaseSample
	}
	type counterRecord struct {
		Record string `json:"record"`
		telemetry.Snapshot
	}
	out, err := telemetry.CreateJSONL(path)
	if err != nil {
		return err
	}
	err = out.Write(hdr)
	for _, s := range rec.Samples() {
		if err == nil {
			err = out.Write(phaseRecord{"phase", s})
		}
	}
	if err == nil {
		err = out.Write(counterRecord{"counters", counters.Snapshot()})
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
