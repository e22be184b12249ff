// bfsrun executes one of the parallel layered BFS variants, validates the
// level assignment against the sequential reference, and reports the level
// structure plus the duplicate work a relaxed variant performed.
//
//	bfsrun -graph pwtk -scale 4 -variant omp-block-relaxed -workers 8
//	bfsrun -file g.mtx -variant bag -source 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"micgraph/internal/bfs"
	"micgraph/internal/core"
	"micgraph/internal/graphio"
	"micgraph/internal/kernels"
	"micgraph/internal/perfmodel"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

func main() {
	var (
		file     = flag.String("file", "", "graph file (.mtx or .bin)")
		name     = flag.String("graph", "", "builtin suite graph name (e.g. inline_1)")
		scale    = flag.Int("scale", 4, "suite shrink factor for -graph")
		variants = strings.Join(kernels.Variants(kernels.BFS), ", ")
		variant  = flag.String("variant", kernels.Default(kernels.BFS), variants)
		workers  = flag.Int("workers", 4, "worker goroutines")
		source   = flag.Int("source", -1, "source vertex (-1 = |V|/2 as in the paper)")
		block    = flag.Int("block", bfs.DefaultBlockSize, "block queue block size, loop chunk and bag grain")
		model    = flag.Bool("model", false, "also print the §III-C achievable-speedup model")
		timeout  = flag.Duration("timeout", 0, "abort the traversal after this long (0 = no deadline)")
		metrics  = flag.String("metrics-out", "", "write per-level phase metrics and scheduler counters as JSONL to `file`")
		prof     core.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfsrun:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "bfsrun:", err)
		}
		os.Exit(code)
	}

	entry, ok := kernels.Lookup(kernels.BFS, *variant)
	if !ok {
		fmt.Fprintf(os.Stderr, "bfsrun: unknown variant %q (want one of: %s)\n", *variant, variants)
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
		fmt.Fprintln(os.Stderr, "bfsrun:", err)
		exit(1)
	}
	src := int32(*source)
	if src < 0 {
		src = int32(g.NumVertices() / 2)
	}
	fmt.Printf("graph: %s  source: %d\n", g, src)

	rt := kernels.NewRuntime(*workers)
	defer rt.Close()
	rt.SetCounters(counters)
	p := kernels.Params{Source: src, Chunk: *block, Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner}
	start := time.Now()
	out, runErr := entry.Run(ctx, rt, g, p)
	elapsed := time.Since(start)
	if *metrics != "" {
		if err := writeMetrics(*metrics, g.String(), *variant, *workers, elapsed, rec, counters); err != nil {
			fmt.Fprintln(os.Stderr, "bfsrun:", err)
			exit(1)
		}
	}
	res := out.BFS
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "bfsrun: traversal aborted after %v (%d levels done): %v\n",
			elapsed.Round(time.Microsecond), res.NumLevels, runErr)
		exit(1)
	}
	if res.TopDownLevels+res.BottomUpLevels > 0 { // only the direction-optimizing variant counts these
		fmt.Printf("direction: %d top-down levels, %d bottom-up levels\n",
			res.TopDownLevels, res.BottomUpLevels)
	}

	if err := entry.Validate(g, p, out); err != nil {
		fmt.Fprintln(os.Stderr, "bfsrun: INVALID BFS:", err)
		exit(1)
	}
	var reached int64
	maxWidth := int64(0)
	for _, w := range res.Widths {
		reached += w
		if w > maxWidth {
			maxWidth = w
		}
	}
	fmt.Printf("levels: %d  reached: %d/%d  max width: %d  processed: %d  duplicates: %d  time: %v  (valid)\n",
		res.NumLevels, reached, g.NumVertices(), maxWidth, res.Processed, res.Duplicates,
		elapsed.Round(time.Microsecond))

	if *model {
		fmt.Println("achievable speedup (§III-C model, block =", *block, "):")
		for _, t := range []int{1, 2, 4, 8, 13, 16, 31, 62, 124} {
			fmt.Printf("  t=%3d  %.2f\n", t, perfmodel.Speedup(res.Widths, t, *block))
		}
		fmt.Printf("  t=inf  %.2f\n", perfmodel.UpperBound(res.Widths, *block))
	}
	exit(0)
}

// writeMetrics dumps one run's telemetry as JSONL: a run header, one line
// per recorded kernel phase, and the scheduler counter snapshot.
func writeMetrics(path, graph, variant string, workers int, elapsed time.Duration,
	rec *telemetry.MemRecorder, counters *telemetry.Counters) error {
	out, err := telemetry.CreateJSONL(path)
	if err != nil {
		return err
	}
	type runRecord struct {
		Record  string `json:"record"`
		Cmd     string `json:"cmd"`
		Graph   string `json:"graph"`
		Variant string `json:"variant"`
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
	if err := out.Write(runRecord{"run", "bfsrun", graph, variant, workers, elapsed.Nanoseconds()}); err != nil {
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
