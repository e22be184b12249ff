// graphinfo prints Table I-style properties for graph files or the builtin
// suite: |V|, |E|, Δ, greedy color count, and BFS level count from |V|/2.
//
//	graphinfo data/pwtk.mtx other.bin
//	graphinfo -suite -scale 4
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"micgraph/internal/coloring"
	"micgraph/internal/core"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/graphio"
	"micgraph/internal/telemetry"
)

func main() {
	var (
		suite   = flag.Bool("suite", false, "report on the builtin 7-graph suite instead of files")
		scale   = flag.Int("scale", 1, "suite shrink factor")
		metrics = flag.String("metrics-out", "", "write one JSONL record per analysed graph to `file`")
		prof    core.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "graphinfo:", err)
		}
		os.Exit(code)
	}

	var metricsFile *telemetry.JSONLFile
	if *metrics != "" {
		metricsFile, err = telemetry.CreateJSONL(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphinfo:", err)
			exit(1)
		}
	}
	type graphRecord struct {
		Record     string  `json:"record"`
		Name       string  `json:"name"`
		Vertices   int     `json:"vertices"`
		Edges      int64   `json:"edges"`
		MaxDegree  int     `json:"max_degree"`
		AvgDegree  float64 `json:"avg_degree"`
		Colors     int     `json:"colors"`
		Levels     int     `json:"levels"`
		Components int     `json:"components"`
		AnalyseNS  int64   `json:"analyse_ns"`
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Name\t|V|\t|E|\tΔ\tavg\t#Color\t#Level\tcomps")

	report := func(name string, g *graph.Graph) {
		start := time.Now()
		res := coloring.SeqGreedy(g)
		_, nl := g.Levels(int32(g.NumVertices() / 2))
		_, comps := g.ConnectedComponents()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\t%d\t%d\t%d\n",
			name, g.NumVertices(), g.NumEdges(), g.MaxDegree(), g.AvgDegree(),
			res.NumColors, nl, comps)
		if metricsFile != nil {
			if err := metricsFile.Write(graphRecord{"graph", name, g.NumVertices(),
				g.NumEdges(), g.MaxDegree(), g.AvgDegree(), res.NumColors, nl, comps,
				time.Since(start).Nanoseconds()}); err != nil {
				fmt.Fprintln(os.Stderr, "graphinfo:", err)
				exit(1)
			}
		}
	}

	if *suite {
		graphs, configs, err := gen.GenerateSuite(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphinfo:", err)
			exit(1)
		}
		for i, g := range graphs {
			report(configs[i].Name, g)
		}
	} else {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "graphinfo: no input files (or use -suite)")
			exit(2)
		}
		for _, path := range flag.Args() {
			g, err := graphio.ReadFile(path, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "graphinfo:", err)
				exit(1)
			}
			report(path, g)
		}
	}
	tw.Flush()
	if metricsFile != nil {
		if err := metricsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "graphinfo:", err)
			exit(1)
		}
	}
	exit(0)
}
