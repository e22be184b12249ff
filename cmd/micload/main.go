// micload is the trace-driven load generator for micserved: it synthesizes
// a deterministic, seeded request trace over phased arrival processes
// (steady / rps-sweep / burst) and a weighted kernel/sweep/export job mix,
// replays it open-loop against one live daemon, or round-robin across
// several cluster entry nodes (-addr url1,url2,...), through a bounded
// client pool, and writes a per-phase SLO report that merges the client's
// observed latencies with the server's span attribution.
//
//	micserved -addr :8377 &
//	micload -addr http://127.0.0.1:8377 -seed 1 \
//	    -phases "steady,dur=10s,rps=25;burst,dur=10s,rps=15,mult=8" \
//	    -out report.json -slo "steady:p99<=2s;burst:drop_rate<=0.5"
//
// Exit codes: 0 success, 1 operational error, 3 SLO violation — so CI can
// gate on the SLO without conflating it with harness failures.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"micgraph/internal/load"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "micload:", err)
	os.Exit(1)
}

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8377", "base URL of the micserved daemon, or comma-separated cluster entry URLs the trace is spread round-robin across")
		seed       = flag.Uint64("seed", 1, "trace synthesizer seed (same seed, same phases -> byte-identical trace)")
		phasesSpec = flag.String("phases",
			"steady,dur=10s,rps=25;sweep,dur=12s,rps=10,end=40;burst,dur=10s,rps=15,mult=8,at=0.5,width=0.2",
			"phase DSL: kind,key=value,... joined by ';' (kinds: steady, sweep, burst)")
		mixSpec   = flag.String("mix", "kernel=0.85,sweep=0.05,export=0.1", "job mix weights")
		clients   = flag.Int("clients", 64, "bounded client pool; arrivals beyond it are shed (dropped)")
		exportDir = flag.String("export-dir", os.TempDir(), "directory export jobs write into (on the daemon host)")
		traceOut  = flag.String("trace-out", "", "write the synthesized trace as JSONL to this path")
		synthOnly = flag.Bool("synth-only", false, "synthesize (and optionally write) the trace, then exit without replaying")
		out       = flag.String("out", "", "write the JSON report to this path")
		sloSpec   = flag.String("slo", "", "SLO gates: '[phase:]metric<=value' joined by ';' (p50/p99/p999 as durations; drop_rate/reject_rate/error_rate as fractions); violations exit 3")
	)
	flag.Parse()

	phases, err := load.ParsePhases(*phasesSpec)
	if err != nil {
		fail(err)
	}
	mix, err := load.ParseMix(*mixSpec)
	if err != nil {
		fail(err)
	}
	rules, err := load.ParseSLOs(*sloSpec)
	if err != nil {
		fail(err)
	}

	trace := load.Synthesize(*seed, phases, mix, *exportDir)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := trace.WriteLog(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if *synthOnly {
		fmt.Fprintf(os.Stderr, "micload: synthesized %d requests over %s (seed %d)\n",
			len(trace.Requests), trace.Duration(), *seed)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	var targets []string
	for _, t := range strings.Split(*addr, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}

	rep, err := load.Replay(ctx, load.Config{
		Targets: targets,
		Clients: *clients,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "micload: "+format+"\n", args...)
		},
	}, trace)
	if err != nil {
		fail(err)
	}
	rep.SLO = load.EvaluateSLOs(rules, rep)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	rep.WriteSummary(os.Stdout)
	if err := rep.Conserved(); err != nil {
		fail(err)
	}
	if !load.SLOsPassed(rep.SLO) {
		fmt.Fprintln(os.Stderr, "micload: SLO violated")
		os.Exit(3)
	}
}
