package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// busyWait keeps the calling goroutine on its thread for d, the way the
// serial stretch between two loops of a kernel does.
func busyWait(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestTeamWakeProtocol drives the publish / spin / park / wake handshake of
// crew through every state it has: loops back to back and after gaps on both
// sides of spinBudget (helpers still spinning, just parking, long parked),
// empty bodies and bodies long enough for the caller to park at the barrier,
// teams narrower and wider than GOMAXPROCS. Each loop is held to the one
// thing the protocol owes its caller — when ForCtx returns, every body call
// of that loop has returned:
//
//   - coverage is read right after ForCtx, through plain memory, so a worker
//     that had not finished shows up as a missing mark (and under -race as a
//     race on it);
//   - a body notes the loop it entered in and looks again on its way out: a
//     helper still inside loop k when loop k+1 has gone out fails by name.
//
// The bug this is here for: a helper descheduled between counting itself out
// and rousing the caller delivers that wake one loop late, and a caller that
// takes a wake for the event returns while the next loop's helpers still run.
func TestTeamWakeProtocol(t *testing.T) {
	loops := 10000
	if raceEnabled {
		loops = 2000
	}
	gaps := []time.Duration{
		0, 0, spinBudget / 2, 0, spinBudget - 2*time.Microsecond, spinBudget,
		spinBudget + 2*time.Microsecond, 0, 2 * spinBudget, 0, 0, 4 * spinBudget,
	}
	for _, workers := range []int{2, 3, 8} {
		team := NewTeam(workers)
		n := 2 * workers
		marks := make([]int64, n)
		var epoch atomic.Int64
		var heavy bool
		body := func(lo, hi, w int) {
			k := epoch.Load()
			for i := lo; i < hi; i++ {
				marks[i] = k
			}
			if heavy {
				busyWait(50 * time.Microsecond / 2) // two chunks a worker
			}
			if now := epoch.Load(); now != k {
				t.Errorf("W=%d: worker %d still inside loop %d when loop %d went out", workers, w, k, now)
			}
		}
		for k := int64(1); k <= int64(loops) && !t.Failed(); k++ {
			if k%50 == 0 {
				time.Sleep(2 * spinBudget) // the caller's thread goes idle too (a millisecond where timers are coarse)
			} else {
				busyWait(gaps[k%int64(len(gaps))])
			}
			epoch.Store(k)
			heavy = k%2 == 1
			if err := team.ForCtx(context.Background(), n, ForOptions{Policy: Dynamic, Chunk: 1, SerialBelow: -1}, body); err != nil {
				t.Fatal(err)
			}
			for i, m := range marks {
				if m != k {
					t.Fatalf("W=%d: ForCtx of loop %d returned with index %d marked by loop %d", workers, k, i, m)
				}
			}
		}
		team.Close()
	}
}

// TestSleeperLateWake is that bug without the luck: the wake for one event is
// held back until the waiter has parked for the next, and await must go back
// to waiting instead of returning on it.
func TestSleeperLateWake(t *testing.T) {
	s := sleeper{wake: make(chan struct{}, 1)}
	var word atomic.Int64
	word.Store(1) // the first event has happened; its wake has not been sent
	returned := make(chan int64)
	go func() {
		s.await(&word, 1)
		s.await(&word, 2)
		returned <- word.Load()
	}()
	for !s.parked.Load() { // parked for the second event
		runtime.Gosched()
	}
	s.rouse() // the first event's wake, a generation late
	select {
	case got := <-returned:
		t.Fatalf("await returned on a stale wake with the word at %d, want it to wait for 2", got)
	case <-time.After(20 * spinBudget):
	}
	word.Store(2)
	s.rouse()
	if got := <-returned; got != 2 {
		t.Fatalf("await returned with the word at %d, want 2", got)
	}
}

// TestTeamLoopOnClosedTeam: Close dismisses the helpers whatever they were
// doing — never used, still spinning after a loop, long parked — leaves no
// goroutine behind, may be repeated, and every way of starting a loop
// afterwards reports ErrClosed instead of waiting for helpers that have
// left.
func TestTeamLoopOnClosedTeam(t *testing.T) {
	body := func(lo, hi, w int) {}
	opts := ForOptions{Policy: Dynamic, Chunk: 1, SerialBelow: -1}
	for _, tc := range []struct {
		name string
		idle time.Duration // after one loop; negative = no loop at all
	}{{"fresh", -1}, {"spinning", 0}, {"parked", 4 * spinBudget}} {
		before := runtime.NumGoroutine()
		team := NewTeam(4)
		if tc.idle >= 0 {
			check(t, team.ForCtx(nil, 64, opts, body))
			time.Sleep(tc.idle)
		}
		team.Close()
		team.Close()
		settleGoroutines(t, before)

		var loop Loop
		loop.OnTeam(team, opts)
		for how, err := range map[string]error{
			"ForCtx":   team.ForCtx(context.Background(), 64, opts, body),
			"ForE":     team.ForE(64, opts, body),
			"Loop.Run": loop.Run(nil, 64, body),
			"inline":   team.ForCtx(nil, 1, ForOptions{}, body),
		} {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s: %s on a closed team: %v, want ErrClosed", tc.name, how, err)
			}
		}
	}
}

// TestTeamOfOneOwnsNoGoroutine: the caller is the whole team.
func TestTeamOfOneOwnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	team := NewTeam(1)
	defer team.Close()
	var ran int
	check(t, team.ForE(100, ForOptions{Policy: Dynamic, Chunk: 10, SerialBelow: -1}, func(lo, hi, w int) { ran += hi - lo }))
	if got := runtime.NumGoroutine(); got > before || ran != 100 {
		t.Errorf("%d goroutines after NewTeam(1), %d before; loop covered %d of 100", got, before, ran)
	}
}

// TestPoolOfOneOwnsNoGoroutine: the caller is the whole pool.
func TestPoolOfOneOwnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(1)
	defer pool.Close()
	var ran int
	check(t, pool.ParallelForCtx(nil, 100, 1, func(lo, hi int, c *Ctx) { ran += hi - lo }))
	if n := runtime.NumGoroutine(); n > before || ran != 100 {
		t.Errorf("%d goroutines after NewPool(1), %d before; cilk_for covered %d of 100", n, before, ran)
	}
}

// TestPoolRunAfterPark: a run finds its helpers still spinning from the last
// one or parked past the budget, and either way returns only when every task
// of it has: coverage is read right after the run, through plain memory, so a
// worker that had not finished shows up as a missing mark (and under -race as
// a race on it). A grain-1 split tree, and each partitioner's run, after a
// park come out whole too.
func TestPoolRunAfterPark(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	const n = 1000
	marks := make([]int, n)
	body := func(lo, hi int, c *Ctx) {
		for i := lo; i < hi; i++ {
			marks[i]++
		}
	}
	runs := []func() error{
		func() error { return pool.ParallelForCtx(nil, n, 7, body) },
		func() error { return pool.ParallelForCtx(nil, n, 1, body) },
	}
	aff := new(AffinityState)
	for _, part := range []Partitioner{SimplePartitioner, AutoPartitioner, AffinityPartitioner} {
		runs = append(runs, func() error { return ParallelForRangeCtx(nil, pool, Range{0, n, 1}, part, aff, body) })
	}
	for k := 1; k <= 50; k++ {
		if k%2 == 0 {
			time.Sleep(2 * spinBudget)
		}
		check(t, runs[k%len(runs)]())
		for i, m := range marks {
			if m != k {
				t.Fatalf("run %d returned with index %d visited %d times, want %d", k, i, m, k)
			}
		}
	}
}
