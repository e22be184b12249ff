package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json the A/A check and the tests
// read.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(path string) (benchmarkJSON, error) {
	var bj benchmarkJSON
	b, err := os.ReadFile(path)
	if err != nil {
		return bj, err
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return bj, fmt.Errorf("%s: %w", path, err)
	}
	return bj, nil
}

// runAA is the A/A check the driver applies before it accepts the benchmark,
// run on one commit: two sets of untraced runs per workload, every run
// with another seed, each in its own process. For every end-to-end metric
// and workload it prints both medians, the quartile spread of each set as a
// share of its median, and the drift of the second median against the first
// in the metric's worse direction. A pair passes when both spreads and the
// drift stay within the bound (setup_s is held to the drift only, as by the
// driver); "steady" marks spreads below a third of the bound, the margin the
// bounds were chosen for. The output is Markdown: bench/AA.md is a committed
// copy.
func runAA(cfg config, runs int) int {
	bj, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa reads BENCHMARK.json from the repository root:", err)
		return 2
	}
	if runs < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs -runs >= 2")
		return 2
	}
	cfg.seconds = float64(bj.RunSeconds)
	cfg.trace = false
	names := workloads
	if cfg.workload != "all" {
		names = []string{cfg.workload}
	}

	e := readEnv(kernelWorkers())
	fmt.Printf("# A/A check\n\n")
	fmt.Printf("Two sets of %d untraced runs per workload, `-seconds %d`, seeds 1..%d and %d..%d, same commit (`%s`).\n\n",
		runs, bj.RunSeconds, runs, runs+1, 2*runs, e.Commit)
	fmt.Printf("Host: %s, %d CPUs, GOMAXPROCS %d, W %d, %s, caches %v.\n\n",
		e.CPUModel, e.NProc, e.GOMAXPROCS, e.W, e.GoVersion, e.Caches)
	fmt.Printf("`spread` is (Q3 − Q1) / median over a set's runs, quartiles as Python's `statistics.quantiles(n=4)`; `drift` is how much worse the second median is than the first. A pair passes when both spreads and the drift are within the bound; `steady` marks spreads below a third of it.\n\n")

	status := 0
	for _, w := range names {
		sets := [2]map[string][]float64{{}, {}}
		for set := 0; set < 2; set++ {
			for i := 0; i < runs; i++ {
				seed := uint64(set*runs + i + 1)
				res, err := runChild(cfg, w, seed, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d failed %d of %d checks\n", w, seed, res.Failed, res.Attempted)
					status = 1
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("## %s\n\n", w)
		fmt.Println("| metric | unit | median A | median B | spread A | spread B | drift | bound | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, m := range bj.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			sa, sb := spread(a), spread(b)
			drift := 0.0
			if ma != 0 {
				drift = (mb - ma) / ma
				if m.Better == "higher" {
					drift = -drift
				}
			}
			ok := drift <= m.Bound && (m.Name == "setup_s" || (sa <= m.Bound && sb <= m.Bound))
			verdict := "FAIL"
			switch {
			case ok && max(sa, sb) < m.Bound/3:
				verdict = "pass, steady"
			case ok:
				verdict = "pass"
			default:
				status = 1
			}
			fmt.Printf("| `%s` | %s | %.4g | %.4g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				m.Name, m.Unit, ma, mb, 100*sa, 100*sb, 100*drift, 100*m.Bound, verdict)
		}
		fmt.Println()
	}
	if status == 0 {
		fmt.Println("Every metric×workload pair is within its bound.")
	} else {
		fmt.Println("**At least one pair is outside its bound.**")
	}
	return status
}
