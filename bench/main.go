// Command bench is the repository's benchmark: five workloads that each
// stress a different layer (kernel inner loops, scheduler dispatch, random
// access, the simulator, the daemon), measured from outside through the
// packages' public functions and telemetry. See README.md in this directory
// for the catalogue and BENCHMARK.json at the repository root for the
// contract the driver runs it under. It is a module of its own; run.sh
// builds it and runs it from the repository root:
//
//	bash bench/run.sh -workload mesh-small -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -aa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads lists the five workloads in catalogue order. The one-line
// reasons live in BENCHMARK.json and README.md.
var workloads = []string{"mesh-large", "mesh-small", "rmat-shuffled", "figures", "serve-mix"}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed phase
	trace    bool    // per-layer run: spans, counters, recorders, ladder
	smoke    bool    // tiny inputs and fixed minimal pass counts, for tests
	outDir   string  // where a traced run writes its Chrome trace

	// breakOracle deliberately falsifies one oracle expectation per
	// workload, so the self-test can see a failed check turn into a
	// non-zero exit.
	breakOracle bool
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var aa bool
	var aaRuns int
	flag.StringVar(&cfg.workload, "workload", "all", "one of "+strings.Join(workloads, ", ")+", or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs and minimal pass counts (self-test)")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for trace files")
	flag.BoolVar(&cfg.breakOracle, "break-oracle", false, "falsify one oracle expectation (self-test: the run must fail)")
	flag.BoolVar(&aa, "aa", false, "A/A check: two sets of -runs untraced runs per workload against the bounds in BENCHMARK.json")
	flag.IntVar(&aaRuns, "runs", 10, "runs per set for -aa")
	flag.Parse()
	cfg.trace = trace != 0

	switch {
	case flag.NArg() > 0:
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	case aa:
		os.Exit(runAA(cfg, aaRuns))
	case cfg.workload == "all":
		os.Exit(runAll(cfg))
	}
	res, rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	printLine(rep)
	printLine(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

// childArgs renders cfg as the flags of a child process running one workload.
func childArgs(cfg config, workload string, seed uint64) []string {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		"-out", cfg.outDir,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	if cfg.breakOracle {
		args = append(args, "-break-oracle")
	}
	return args
}

// runChild runs one workload in its own process, so that peak_rss_mb is the
// workload's own, and returns its parsed result line. The child's stdout is
// passed through when echo is set.
func runChild(cfg config, workload string, seed uint64, echo bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, childArgs(cfg, workload, seed)...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return res, nil
}

// runAll runs the five workloads one after another, each in its own process,
// and exits non-zero if any of them failed a check.
func runAll(cfg config) int {
	status := 0
	for _, w := range workloads {
		res, err := runChild(cfg, w, cfg.seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			status = 2
			continue
		}
		if !res.Correct && status == 0 {
			status = 1
		}
	}
	return status
}

// run is the state of one workload run: the check tally, the metrics
// gathered so far and the descriptive report printed before the result.
type run struct {
	cfg       config
	w         int // kernel workers: min(GOMAXPROCS, 4)
	attempted int
	failed    int
	metrics   map[string]float64
	rep       report
	tr        *tracer // nil on an untraced run
}

// report is the human-facing companion of the result line: what machine,
// what inputs, how many samples, and the issue's names for the generic
// metrics. It is printed as the line before the result.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Smoke     bool               `json:"smoke,omitempty"`
	Env       env                `json:"env"`
	InputHash string             `json:"input_hash"`
	Inputs    map[string]any     `json:"inputs"`
	Samples   map[string]int     `json:"samples"`
	Aliases   map[string]value   `json:"aliases,omitempty"`
	Notes     map[string]any     `json:"notes,omitempty"`
	Calib     map[string]float64 `json:"host_calib_ms"`
	StealPct  float64            `json:"host_steal_pct"`
	Noisy     bool               `json:"noisy"`
	TraceFile string             `json:"trace_file,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	WallS     float64            `json:"wall_s"`
}

// check tallies one correctness check; a non-nil err is a failed operation.
func (r *run) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		msg := what + ": " + err.Error()
		if len(r.rep.Failures) < 20 {
			r.rep.Failures = append(r.rep.Failures, msg)
		}
		fmt.Fprintln(os.Stderr, "bench: FAILED", msg)
	}
}

// op tallies n operations that carry their own verdicts.
func (r *run) op(n, failed int) {
	r.attempted += n
	r.failed += failed
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(key string, v any) {
	if r.rep.Notes == nil {
		r.rep.Notes = map[string]any{}
	}
	r.rep.Notes[key] = v
}

// runWorkload runs one workload in this process and returns the contract's
// result plus the report. An error means the benchmark itself is broken
// (unknown workload, a metric of the catalogue not emitted), as opposed to a
// failed correctness check, which comes back as Correct == false.
func runWorkload(cfg config) (result, report, error) {
	started := time.Now()
	r := &run{cfg: cfg, w: kernelWorkers(), metrics: map[string]float64{}}
	r.rep = report{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Smoke: cfg.smoke,
		Env: readEnv(r.w), Inputs: map[string]any{}, Samples: map[string]int{},
	}
	if cfg.trace {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	}
	// A process's first readings are up to twice as slow, hence best of
	// ten at the start; a smoke run only goes through the motions.
	calibBefore, calibAfter := 10, 5
	if cfg.smoke {
		calibBefore, calibAfter = 1, 1
	}
	before := calibrate(calibBefore)
	steal0, total0 := cpuTimes()

	var err error
	switch cfg.workload {
	case "mesh-large", "mesh-small", "rmat-shuffled":
		err = r.graphWorkload()
	case "figures":
		err = r.figuresWorkload()
	case "serve-mix":
		err = r.serveWorkload()
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return result{}, report{}, err
	}

	after := calibrate(calibAfter)
	r.rep.Calib = map[string]float64{
		"cpu_before": before.cpuMS, "cpu_after": after.cpuMS,
		"mem_before": before.memMS, "mem_after": after.memMS,
	}
	drift := calibDrift(before, after)
	if steal1, total1 := cpuTimes(); total1 > total0 {
		r.rep.StealPct = 100 * (steal1 - steal0) / (total1 - total0)
	}
	r.rep.Noisy = drift > 0.10 || r.rep.StealPct > 5
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		r.set("host.calib_cpu_ms", (before.cpuMS+after.cpuMS)/2)
		r.set("host.calib_mem_ms", (before.memMS+after.memMS)/2)
		r.set("host.calib_drift_pct", 100*drift)
		path, err := r.tr.write(cfg.outDir)
		if err != nil {
			return result{}, report{}, err
		}
		r.rep.TraceFile = path
	} else {
		r.set("peak_rss_mb", peakRSSMB())
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	units := unitOf(defs)
	for name := range r.metrics {
		if _, ok := units[name]; !ok {
			missing = append(missing, "+"+name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return result{}, report{}, fmt.Errorf("%s: emitted metrics differ from the catalogue (missing, +extra): %s",
			cfg.workload, strings.Join(missing, " "))
	}
	if res.Attempted == 0 {
		return result{}, report{}, fmt.Errorf("%s: nothing attempted", cfg.workload)
	}
	r.rep.WallS = time.Since(started).Seconds()
	return res, r.rep, nil
}
