// micserved is the resident serving daemon: it keeps graphs and generated
// experiment suites cached in memory and runs submitted BFS / coloring /
// irregular-kernel jobs and experiment sweeps on a fixed worker pool with
// admission control, per-job deadlines and streaming JSONL results.
//
//	micserved -addr :8377
//	curl -s localhost:8377/healthz
//	curl -s -X POST localhost:8377/jobs -d '{"kind":"coloring","graph":{"suite":"pwtk","scale":8}}'
//	curl -s localhost:8377/jobs/job-000001/result      # streams JSONL
//	curl -s localhost:8377/metricsz
//
// SIGTERM/SIGINT drain gracefully: admission stops (new submits get 503),
// queued-but-unstarted jobs are cancelled (each streams a terminal error
// line — no accepted job ever vanishes silently), in-flight jobs run to
// completion, then the process exits 0. Cancelling the queued tail keeps
// the drain bounded by the jobs already executing, so a full queue cannot
// push shutdown past -drain-timeout.
//
// With -name and -peers the daemon joins a static cluster: kernel jobs are
// placed on a seeded consistent-hash ring keyed by graph identity (bounded
// load, R-way replication for hot-graph reads), non-local jobs are
// forwarded one hop with the result stream relayed through the entry node,
// job ids are shard-prefixed so follow-up requests route by id, peers are
// probed and evicted from the ring on failure, and /metricsz reports
// per-shard totals plus their conservation-preserving sum.
//
//	micserved -addr :8381 -name n1 -peers n1=http://h1:8381,n2=http://h2:8381
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"micgraph/internal/cluster"
	"micgraph/internal/core"
	"micgraph/internal/fault"
	"micgraph/internal/mic"
	"micgraph/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8377", "listen address")
		workers = flag.Int("workers", 2, "concurrent jobs (each owns one resident sched engine of -kernel-workers)")
		kernelW = flag.Int("kernel-workers", 4, "scheduler parallelism inside each job")
		depth   = flag.Int("queue", 16, "queued-job capacity; submits beyond it get 429")
		cacheMB = flag.Int64("cache-mb", 1024, "graph cache budget in MiB")
		jobTO   = flag.Duration("job-timeout", 2*time.Minute, "default per-job deadline")
		maxTO   = flag.Duration("max-timeout", 10*time.Minute, "hard cap on per-job deadlines")
		drainTO = flag.Duration("drain-timeout", time.Minute, "how long to wait for in-flight jobs on shutdown")
		retryIn = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses (load harnesses tune this down)")

		name        = flag.String("name", "", "cluster mode: this node's shard name (requires -peers)")
		peersFlag   = flag.String("peers", "", "cluster mode: static membership, name=url,... or @peers.json")
		replication = flag.Int("replication", 2, "cluster mode: replica-set size R for hot-graph reads")
		probeEvery  = flag.Duration("probe-interval", time.Second, "cluster mode: peer health probe interval")
		probeTO     = flag.Duration("probe-timeout", 2*time.Second, "cluster mode: per-probe timeout")
		probeFails  = flag.Int("probe-fails", 2, "cluster mode: consecutive probe failures before ring eviction")

		faultSeed  = flag.Uint64("fault-seed", 1, "fault injection: deterministic injector seed")
		panicRate  = flag.Float64("fault-panic-rate", 0, "fault injection: probability a scheduler boundary panics")
		stallRate  = flag.Float64("fault-stall-rate", 0, "fault injection: probability a scheduler boundary stalls")
		stallFor   = flag.Duration("fault-stall", 10*time.Millisecond, "fault injection: stall duration")
		readRate   = flag.Float64("fault-read-rate", 0, "fault injection: probability a graph-file read errors")
		writeRate  = flag.Float64("fault-write-rate", 0, "fault injection: probability a graph-file write (export jobs) errors")
		stragRate  = flag.Float64("straggler-rate", 0, "fault injection: probability each simulated MIC core straggles")
		stragSlow  = flag.Float64("straggler-slow", 0.5, "fault injection: slowdown fraction of a straggling core")
		machineCfg = flag.String("machine", "", "JSON file overriding the KNF machine description (see mic.SaveMachine)")

		prof core.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "micserved:", err)
		os.Exit(1)
	}

	knf := mic.KNF()
	if *machineCfg != "" {
		f, err := os.Open(*machineCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "micserved:", err)
			os.Exit(1)
		}
		knf, err = mic.LoadMachine(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "micserved:", err)
			os.Exit(1)
		}
	}

	var in *fault.Injector
	if *panicRate > 0 || *stallRate > 0 || *readRate > 0 || *writeRate > 0 || *stragRate > 0 {
		in = fault.New(*faultSeed)
		if *panicRate > 0 {
			in.Enable("team/chunk/panic", *panicRate).Enable("pool/task/panic", *panicRate)
		}
		if *stallRate > 0 {
			in.Enable("team/chunk/stall", *stallRate).Enable("pool/task/stall", *stallRate)
		}
		if *readRate > 0 {
			in.Enable("graphio/read/err", *readRate)
		}
		if *writeRate > 0 {
			in.Enable("graphio/write/err", *writeRate)
		}
		if *stragRate > 0 {
			in.Enable("mic/straggler", *stragRate).SetParam("mic/straggler", *stragSlow)
			knf = knf.WithStragglers(in)
		}
		fmt.Fprintf(os.Stderr, "micserved: fault injection armed (seed %d)\n", *faultSeed)
	}

	serveCfg := serve.Config{
		Workers:        *workers,
		KernelWorkers:  *kernelW,
		QueueDepth:     *depth,
		CacheBytes:     *cacheMB << 20,
		DefaultTimeout: *jobTO,
		MaxTimeout:     *maxTO,
		RetryAfter:     *retryIn,
		Injector:       in,
		Stall:          *stallFor,
		KNF:            knf,
	}

	// Cluster mode: -name + -peers turn this process into one shard of a
	// sharded micserved. The HTTP surface is unchanged — the node routes
	// each request to the shard the placement ring picks — so clients and
	// load harnesses point at any member.
	var (
		handler http.Handler
		drain   func(context.Context) error
	)
	if *name != "" || *peersFlag != "" {
		if *name == "" || *peersFlag == "" {
			fmt.Fprintln(os.Stderr, "micserved: cluster mode needs both -name and -peers")
			os.Exit(2)
		}
		peers, err := cluster.ParsePeers(*peersFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "micserved:", err)
			os.Exit(2)
		}
		node, err := cluster.NewNode(cluster.Config{
			Self:          *name,
			Peers:         peers,
			Replication:   *replication,
			ProbeInterval: *probeEvery,
			ProbeTimeout:  *probeTO,
			FailThreshold: *probeFails,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}, serveCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "micserved:", err)
			os.Exit(2)
		}
		probeCtx, stopProbes := context.WithCancel(context.Background())
		defer stopProbes()
		node.Start(probeCtx)
		handler = node.Handler()
		drain = node.Drain
		fmt.Fprintf(os.Stderr, "micserved: cluster mode, shard %s of %d peers\n", *name, len(peers))
	} else {
		srv := serve.New(serveCfg)
		handler = srv.Handler()
		drain = srv.Drain
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "micserved: listening on %s (%d workers x %d kernel workers, queue %d)\n",
			*addr, *workers, *kernelW, *depth)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	exit := 0
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "micserved:", err)
		exit = 1
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "micserved: signal received, draining ...")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
		if err := drain(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "micserved: drain:", err)
			exit = 1
		} else {
			fmt.Fprintln(os.Stderr, "micserved: drained")
		}
		if err := httpSrv.Shutdown(drainCtx); err != nil &&
			!errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "micserved: shutdown:", err)
			exit = 1
		}
		cancel()
		<-errc // ListenAndServe returns http.ErrServerClosed
	}

	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "micserved:", err)
		exit = 1
	}
	os.Exit(exit)
}
