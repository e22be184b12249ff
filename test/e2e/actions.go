package e2e

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"micgraph/internal/kernels"
	"micgraph/internal/xrand"
)

// chaosDaemon is the daemon shape every chaos run drives: small queue and
// worker pool so overload bursts reliably hit admission control, short job
// timeout so nothing can stall a run, and every fault family armed —
// scheduler panics and stalls, graph read and write faults, straggler
// cores for sweeps. The fault seed is derived from the chaos seed, so one
// seed reproduces both the action script and the injected failures.
func chaosDaemon(seed uint64) daemonConfig {
	return daemonConfig{
		workers:       2,
		kernelWorkers: 2,
		queueDepth:    3,
		jobTimeout:    10 * time.Second,
		drainTimeout:  30 * time.Second,
		faultSeed:     seed*2654435761 + 1,
		panicRate:     0.05,
		stallRate:     0.10,
		stall:         2 * time.Millisecond,
		readRate:      0.05,
		writeRate:     0.25,
		stragglerRate: 0.2,
	}
}

// Action ops. Submit-like ops carry a Body; poll/cancel address a tracked
// job by Target; corrupt addresses a pool file; overload carries a burst
// of bodies; restart SIGTERMs the daemon mid-flight and starts a fresh one.
const (
	opSubmit    = "submit"        // submit a valid (or bogus-variant) job
	opMalformed = "malformed"     // submit a body that must 400
	opPoll      = "poll"          // GET /jobs/{id} of a tracked job
	opProbe     = "latency-probe" // poll + latency-span invariants on the view
	opCancel    = "cancel"        // DELETE /jobs/{id} of a tracked job
	opList      = "list"          // GET /jobs
	opMetrics   = "metrics"       // GET /metricsz + conservation check
	opOverload  = "overload"      // burst of submits past the queue depth
	opCorrupt   = "corrupt"       // damage a pool graph file (new version)
	opRestart   = "restart"       // SIGTERM, drain invariants, fresh daemon
)

// action is one generated step. Bodies reference runtime directories via
// the placeholders $F (file pool) and $OUT (export output dir), so the
// script itself — and its log — is byte-identical across runs and hosts.
type action struct {
	Op         string
	Body       string
	Burst      []string
	Target     int
	File       int
	ExpectFail bool // submit of a corrupted file: the job must not succeed
	IsExport   bool
}

// format renders the canonical script-log line (sans index). Every field
// that influences execution appears here; two scripts are behaviourally
// identical iff their logs are byte-identical.
func (a action) format() string {
	switch a.Op {
	case opSubmit:
		return fmt.Sprintf("%s expect_fail=%t export=%t body=%s", a.Op, a.ExpectFail, a.IsExport, a.Body)
	case opMalformed:
		return fmt.Sprintf("%s body=%s", a.Op, a.Body)
	case opPoll, opProbe, opCancel:
		return fmt.Sprintf("%s target=%d", a.Op, a.Target)
	case opCorrupt:
		return fmt.Sprintf("%s file=%d", a.Op, a.File)
	case opOverload:
		return fmt.Sprintf("%s burst=%s", a.Op, strings.Join(a.Burst, "|"))
	default:
		return a.Op
	}
}

// scriptLog renders the whole script in canonical form — the byte-identical
// artifact the determinism test pins and a failing run logs for replay.
func scriptLog(script []action) []byte {
	var buf bytes.Buffer
	for i, a := range script {
		fmt.Fprintf(&buf, "%04d %s\n", i, a.format())
	}
	return buf.Bytes()
}

var (
	suites       = []string{"pwtk", "hood", "bmw3_2", "msdoor"}
	sweepExps    = []string{"fig1a", "fig3a", "fig4a"}
	exportExts   = []string{"mtx", "bin", "el"}
	malformedSet = []string{
		`{`,
		`{"kind":"nope"}`,
		`{"kind":"bfs"}`,
		`{"kind":"sweep","experiments":["figZZ"]}`,
		`{"kind":"export","graph":{"suite":"pwtk"}}`,
		`{"kind":"bfs","graph":{"suite":"pwtk"},"timeout_ms":-5}`,
		`{"kind":"bfs","graph":{"suite":"pwtk"},"bogus_field":1}`,
	}
)

// genScript derives a whole action script from (seed, n) and nothing else.
// It mirrors the file pool's version counters so corrupted-file references
// always name files the executor will have materialised. A post-pass
// guarantees coverage on longer runs: at least one overload, one corrupt,
// one mid-flight restart and one latency probe, placed at deterministic indices, so the
// acceptance scenario (panics+stalls+read/write faults+overload+SIGTERM/
// restart) holds for every seed, not just lucky ones.
func genScript(seed uint64, n int) []action {
	rng := xrand.New(seed)
	cfg := chaosDaemon(seed)
	vers := make([]int, len(poolFiles))
	exports := 0
	script := make([]action, 0, n)

	// kernelBody draws any entry of the kernels table, so every kind and
	// variant the daemon accepts runs under the oracle.
	kernelBody := func() string {
		suite := suites[rng.Intn(len(suites))]
		scale := []int{8, 16, 32}[rng.Intn(3)]
		chunk := []int{50, 100, 200}[rng.Intn(3)]
		timeout := ""
		if rng.Intn(8) == 0 {
			timeout = `,"timeout_ms":50` // deadline-cancel some jobs on purpose
		}
		e := kernels.Table()[rng.Intn(len(kernels.Table()))]
		v := e.Variant
		if rng.Intn(12) == 0 {
			v = "bogus" // accepted, then fails at run time
		}
		return fmt.Sprintf(`{"kind":%q,"variant":%q,"iters":%d,"chunk":%d,"graph":{"suite":%q,"scale":%d}%s}`,
			e.Kind, v, 3+rng.Intn(4), chunk, suite, scale, timeout)
	}
	fastBody := func() string {
		return fmt.Sprintf(`{"kind":"coloring","variant":"seq","graph":{"suite":%q,"scale":8}}`,
			suites[rng.Intn(len(suites))])
	}

	for len(script) < n {
		var a action
		switch p := rng.Intn(100); {
		case p < 30: // kernel job on a builtin suite graph
			a = action{Op: opSubmit, Body: kernelBody()}
		case p < 38: // sweep job
			a = action{Op: opSubmit, Body: fmt.Sprintf(
				`{"kind":"sweep","experiments":[%q],"sweep_scale":8,"retries":%d}`,
				sweepExps[rng.Intn(len(sweepExps))], rng.Intn(3))}
		case p < 48: // export job (fires the graphio/write fault site)
			ext := exportExts[rng.Intn(len(exportExts))]
			a = action{Op: opSubmit, IsExport: true, Body: fmt.Sprintf(
				`{"kind":"export","graph":{"suite":%q,"scale":16},"output":"$OUT/export-%d.%s"}`,
				suites[rng.Intn(len(suites))], exports, ext)}
			exports++
		case p < 58: // kernel job on a pool file (pristine or corrupted)
			f := rng.Intn(len(poolFiles))
			a = action{Op: opSubmit, ExpectFail: vers[f] > 0, Body: fmt.Sprintf(
				`{"kind":"coloring","variant":"openmp","graph":{"file":"$F/%s"}}`,
				poolFileName(f, vers[f]))}
		case p < 65:
			a = action{Op: opMalformed, Body: malformedSet[rng.Intn(len(malformedSet))]}
		case p < 70:
			a = action{Op: opPoll, Target: rng.Intn(1 << 16)}
		case p < 73:
			a = action{Op: opProbe, Target: rng.Intn(1 << 16)}
		case p < 79:
			a = action{Op: opList}
		case p < 87:
			a = action{Op: opCancel, Target: rng.Intn(1 << 16)}
		case p < 94:
			a = action{Op: opMetrics}
		case p < 97: // overload: a slow sweep, then a burst past the queue
			burst := []string{`{"kind":"sweep","experiments":["fig4a"],"sweep_scale":8}`}
			for k := 0; k < cfg.queueDepth+cfg.workers+3; k++ {
				burst = append(burst, fastBody())
			}
			a = action{Op: opOverload, Burst: burst}
		case p < 99:
			f := rng.Intn(len(poolFiles))
			vers[f]++
			a = action{Op: opCorrupt, File: f}
		default:
			a = action{Op: opRestart}
		}
		script = append(script, a)
	}

	// Coverage post-pass: longer runs must exercise overload, corruption and
	// a mid-flight restart whatever the dice said. Only observer slots
	// (poll/list/metrics/cancel) are overwritten — replacing a corrupt or
	// submit op would desync the pool-version bookkeeping above.
	if n >= 30 {
		replaceable := map[string]bool{opPoll: true, opList: true, opMetrics: true, opCancel: true}
		ensure := func(op string, at int, mk func() action) {
			for _, a := range script {
				if a.Op == op {
					return
				}
			}
			for off := 0; off < n; off++ {
				if i := (at + off) % n; replaceable[script[i].Op] {
					script[i] = mk()
					return
				}
			}
		}
		ensure(opOverload, n/3, func() action {
			burst := []string{`{"kind":"sweep","experiments":["fig4a"],"sweep_scale":8}`}
			for k := 0; k < cfg.queueDepth+cfg.workers+3; k++ {
				burst = append(burst, fastBody())
			}
			return action{Op: opOverload, Burst: burst}
		})
		ensure(opCorrupt, n/2, func() action { return action{Op: opCorrupt, File: 0} })
		ensure(opRestart, 2*n/3, func() action { return action{Op: opRestart} })
		ensure(opProbe, n/4, func() action { return action{Op: opProbe, Target: 1} })

		// A corrupted file that is never submitted exercises nothing: make
		// sure some submit references a corrupted version after it exists.
		// Walk the final script tracking versions; if no expect-fail submit
		// follows the first corruption, convert the next observer slot (or
		// append, if none remains) into one.
		walk := make([]int, len(poolFiles))
		damaged := -1
		covered := false
		fixAt := -1
		for i := range script {
			switch a := script[i]; {
			case a.Op == opCorrupt:
				walk[a.File]++
				if damaged == -1 {
					damaged = a.File
				}
			case damaged >= 0 && a.Op == opSubmit && a.ExpectFail:
				covered = true
			case damaged >= 0 && fixAt == -1 && replaceable[a.Op]:
				fixAt = i
			}
			if covered {
				break
			}
		}
		if !covered && damaged >= 0 {
			fix := action{Op: opSubmit, ExpectFail: true, Body: fmt.Sprintf(
				`{"kind":"coloring","variant":"openmp","graph":{"file":"$F/%s"}}`,
				poolFileName(damaged, 1))}
			if fixAt >= 0 {
				script[fixAt] = fix
			} else {
				script = append(script, fix)
			}
		}
	}
	return script
}
