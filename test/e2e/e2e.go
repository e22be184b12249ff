// Package e2e is the black-box chaos oracle for the serving path: it
// compiles the real cmd/micserved binary, starts it on a random port with
// fault injection armed, and drives seeded randomized action sequences —
// valid and malformed submissions, polls, cancels, overload bursts past
// the queue depth, graph-file truncation/corruption mid-fleet, injected
// scheduler panics/stalls, straggler cores, read/write I/O faults, and
// SIGTERM/restart cycles — while continuously asserting the invariants
// every later serving change inherits as a regression gate:
//
//   - the daemon never dies except when told to (and never trips the race
//     detector when built with -race);
//   - no accepted job is ever stuck non-terminal: every result stream the
//     oracle follows closes cleanly, and failed/cancelled jobs end with a
//     terminal error line;
//   - the /metricsz jobs_total counters are conserved at every sample:
//     submitted = rejected + succeeded + failed + cancelled + in_flight;
//   - every 429 response carries Retry-After;
//   - SIGTERM drains inside -drain-timeout with every accepted job
//     reaching a terminal streamed status, and the process exits 0;
//   - identical -chaos.seed runs produce byte-identical action scripts and
//     (for the deterministic replay scenario) byte-identical result
//     payloads.
//
// The harness is layered like marcus/td's e2e suite: a binary builder
// (build.go), a process supervisor (daemon.go), an HTTP actor (client.go),
// a seeded action generator with a shrinking-friendly canonical script log
// (actions.go), a graph-file pool with deterministic corruption
// (files.go), and the invariant-checking executors (run.go, replay.go).
// All harness logic lives in non-test files so micvet's analyzers
// (goroleak, resclose) and staticcheck police it like any other package.
//
// Tiers:
//
//	go test ./test/e2e/                                        # smoke (75 actions)
//	go test ./test/e2e/ -args -chaos.actions=2000              # long tier
//	go test ./test/e2e/ -args -chaos.seed=1755 -chaos.actions=75   # reproduce a logged run
package e2e

import "flag"

// Chaos tiers are flag-controlled so CI runs a short smoke sequence and a
// long tier stays runnable locally against the same code path. The seed
// fully determines the action script: to reproduce a failure, rerun with
// the seed and action count printed at the start of the failing run.
var (
	chaosActions = flag.Int("chaos.actions", 75, "number of chaos actions per run (75 = CI smoke tier)")
	chaosSeed    = flag.Uint64("chaos.seed", 1, "seed for the chaos action generator; same seed = same script")
)

// tb is the slice of testing.TB the harness needs. Keeping the harness off
// the testing package lets every non-test file type-check standalone (which
// is how micvet loads packages) while tests pass *testing.T straight in.
type tb interface {
	Helper()
	Logf(format string, args ...any)
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}
