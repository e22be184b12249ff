// graphgen generates the synthetic graph suite (or any single generator
// family) and writes Matrix Market or binary CSR files.
//
//	graphgen -out data/ -scale 4              # the 7 Table I stand-ins
//	graphgen -family rmat -n 16 -m 8 -out g.mtx
//	graphgen -family grid2d -w 100 -h 100 -format bin -out grid.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"micgraph/internal/core"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/graphio"
	"micgraph/internal/telemetry"
)

func main() {
	var (
		family  = flag.String("family", "suite", "suite, mesh, grid2d, grid3d, chain, er, rmat, ringofcliques")
		name    = flag.String("name", "", "suite graph name for -family mesh (e.g. pwtk)")
		scale   = flag.Int("scale", 1, "linear shrink factor for suite/mesh")
		out     = flag.String("out", ".", "output file (single graph) or directory (suite)")
		format  = flag.String("format", "mtx", "mtx (Matrix Market), bin (binary CSR), or el (edge list)")
		nFlag   = flag.Int("n", 10, "size parameter: RMAT scale / chain length / ER vertices")
		mFlag   = flag.Int("m", 8, "RMAT edge factor / ER edge count")
		wFlag   = flag.Int("w", 10, "grid width")
		hFlag   = flag.Int("h", 10, "grid height")
		dFlag   = flag.Int("d", 10, "grid depth (grid3d)")
		kFlag   = flag.Int("k", 10, "clique count (ringofcliques)")
		sFlag   = flag.Int("s", 8, "clique size (ringofcliques)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		metrics = flag.String("metrics-out", "", "write one JSONL record per generated graph to `file`")
		prof    core.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
		}
		os.Exit(code)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		exit(1)
	}

	var metricsFile *telemetry.JSONLFile
	if *metrics != "" {
		metricsFile, err = telemetry.CreateJSONL(*metrics)
		if err != nil {
			fail(err)
		}
	}
	type graphRecord struct {
		Record    string  `json:"record"`
		Path      string  `json:"path"`
		Vertices  int     `json:"vertices"`
		Edges     int64   `json:"edges"`
		MaxDegree int     `json:"max_degree"`
		AvgDegree float64 `json:"avg_degree"`
		WriteNS   int64   `json:"write_ns"`
	}

	outFormat, err := graphio.ParseFormat(*format)
	if err != nil {
		fail(err)
	}
	write := func(g *graph.Graph, path string) {
		start := time.Now()
		if err := graphio.WriteFile(path, g, outFormat, nil); err != nil {
			fail(err)
		}
		fmt.Printf("%s: %s\n", path, g)
		if metricsFile != nil {
			if err := metricsFile.Write(graphRecord{"graph", path, g.NumVertices(),
				g.NumEdges(), g.MaxDegree(), g.AvgDegree(), time.Since(start).Nanoseconds()}); err != nil {
				fail(err)
			}
		}
	}

	switch *family {
	case "suite":
		graphs, configs, err := gen.GenerateSuite(*scale)
		if err != nil {
			fail(err)
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
		for i, g := range graphs {
			base := strings.ReplaceAll(configs[i].Name, "/", "_x")
			write(g, filepath.Join(*out, base+"."+*format))
		}
	case "mesh":
		cfg, err := gen.SuiteConfig(*name)
		if err != nil {
			fail(err)
		}
		g, err := gen.Mesh(gen.Scaled(cfg, *scale))
		if err != nil {
			fail(err)
		}
		write(g, *out)
	case "grid2d":
		write(gen.Grid2D(*wFlag, *hFlag), *out)
	case "grid3d":
		write(gen.Grid3D(*wFlag, *hFlag, *dFlag), *out)
	case "chain":
		write(gen.Chain(*nFlag), *out)
	case "er":
		write(gen.ErdosRenyi(*nFlag, *mFlag, *seed), *out)
	case "rmat":
		write(gen.RMAT(*nFlag, *mFlag, 0.57, 0.19, 0.19, *seed), *out)
	case "ringofcliques":
		write(gen.RingOfCliques(*kFlag, *sFlag), *out)
	default:
		fail(fmt.Errorf("unknown family %q", *family))
	}
	if metricsFile != nil {
		if err := metricsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			exit(1)
		}
	}
	exit(0)
}
