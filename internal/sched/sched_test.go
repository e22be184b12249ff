package sched

import (
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// coverageCheck runs loop and verifies every index in [0, n) was visited
// exactly once.
func coverageCheck(t *testing.T, n int, loop func(mark func(i int))) {
	t.Helper()
	counts := make([]int32, n)
	loop(func(i int) {
		if i < 0 || i >= n {
			t.Errorf("index %d out of [0,%d)", i, n)
			return
		}
		atomic.AddInt32(&counts[i], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times, want 1", i, c)
		}
	}
}

// check reports the error of a driver that must succeed: the coverage,
// stress and counter tests exercise scheduling, not the failure paths
// (hardening_test.go has those). t.Error, so it is safe off the test's
// goroutine.
func check(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

func TestTeamForAllPolicies(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	for _, pol := range []Policy{Static, Dynamic, Guided} {
		for _, chunk := range []int{0, 1, 3, 7, 100, 1000} {
			pol, chunk := pol, chunk
			t.Run(pol.String(), func(t *testing.T) {
				coverageCheck(t, 537, func(mark func(int)) {
					check(t, team.ForE(537, ForOptions{Policy: pol, Chunk: chunk, SerialBelow: -1}, func(lo, hi, w int) {
						if w < 0 || w >= 4 {
							t.Errorf("worker id %d out of range", w)
						}
						for i := lo; i < hi; i++ {
							mark(i)
						}
					}))
				})
			})
		}
	}
}

func TestTeamForEmptyAndTiny(t *testing.T) {
	team := NewTeam(8)
	defer team.Close()
	called := int32(0)
	check(t, team.ForE(0, ForOptions{}, func(lo, hi, w int) { atomic.AddInt32(&called, 1) }))
	if called != 0 {
		t.Error("body called for empty loop")
	}
	// n smaller than worker count: every index still covered exactly once.
	coverageCheck(t, 3, func(mark func(int)) {
		check(t, team.ForE(3, ForOptions{Policy: Dynamic, SerialBelow: -1}, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				mark(i)
			}
		}))
	})
}

func TestTeamSingleWorker(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	order := make([]int, 0, 10)
	check(t, team.ForE(10, ForOptions{Policy: Static, Chunk: 0}, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			order = append(order, i)
		}
	}))
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker static order[%d] = %d", i, v)
		}
	}
}

func TestTeamCoverageProperty(t *testing.T) {
	team := NewTeam(6)
	defer team.Close()
	property := func(nRaw, chunkRaw uint16, polRaw uint8) bool {
		n := int(nRaw % 2000)
		chunk := int(chunkRaw % 50)
		pol := Policy(polRaw % 3)
		counts := make([]int32, n)
		check(t, team.ForE(n, ForOptions{Policy: pol, Chunk: chunk, SerialBelow: -1}, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		}))
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNewTeamPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTeam(0) did not panic")
		}
	}()
	NewTeam(0)
}

func TestPolicyString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy has empty name")
	}
}

func TestTeamCloseIdempotent(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close() // must not panic
}

// TestTeamSerialCutoff: under a zero-valued SerialBelow a loop of at most
// one chunk per worker runs inline — exactly one body call, [0, n) as worker
// 0, on the calling goroutine — and a loop one iteration longer is
// dispatched: chunked by the policy and run by whichever workers claim the
// chunks, the caller (worker 0) among them.
func TestTeamSerialCutoff(t *testing.T) {
	const workers = 4
	team := NewTeam(workers)
	defer team.Close()
	for _, chunk := range []int{0, 16} {
		cutoff := workers * max(chunk, DefaultChunk)
		for _, n := range []int{cutoff, cutoff + 1} {
			inline := n <= cutoff
			var calls atomic.Int32
			coverageCheck(t, n, func(mark func(int)) {
				check(t, team.ForE(n, ForOptions{Policy: Dynamic, Chunk: chunk}, func(lo, hi, w int) {
					calls.Add(1)
					// The test function's own frame is on the stack only of
					// the goroutine that called For.
					onCaller := strings.Contains(string(debug.Stack()), "sched.TestTeamSerialCutoff(")
					switch {
					case inline && (lo != 0 || hi != n || w != 0 || !onCaller):
						t.Errorf("chunk %d, n %d: inline loop ran [%d,%d) as worker %d (on the caller: %v)", chunk, n, lo, hi, w, onCaller)
					case !inline && (hi-lo > max(chunk, DefaultChunk) || w < 0 || w >= workers || onCaller != (w == 0)):
						t.Errorf("chunk %d, n %d: dispatched loop ran [%d,%d) as worker %d (on the caller: %v)", chunk, n, lo, hi, w, onCaller)
					}
					for i := lo; i < hi; i++ {
						mark(i)
					}
				}))
			})
			if got := calls.Load(); inline && got != 1 || !inline && got < 2 {
				t.Errorf("chunk %d, n %d (cutoff %d): %d body calls", chunk, n, cutoff, got)
			}
		}
	}
}
