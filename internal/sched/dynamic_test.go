package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// The Dynamic policy is static-steal (dynamicClaim): these tests hold it to
// what one shared cursor gave — exactly-once coverage, balance, the
// checkpoint at every claim — and to what it adds: a chunk stays inside one
// block, and a worker leaves its block only once that is empty.

// blockOf returns the worker whose block [n·b/W, n·(b+1)/W) holds i.
func blockOf(i, n, workers int) int {
	b := 0
	for b < workers-1 && i >= n*(b+1)/workers {
		b++
	}
	return b
}

// dynamicCoverage holds one Dynamic loop to exactly-once coverage by chunks
// that are no larger than asked for and stay inside one block.
func dynamicCoverage(t *testing.T, team *Team, n, chunk int) {
	t.Helper()
	workers := team.Workers()
	defer func() {
		if t.Failed() {
			t.Logf("at n=%d W=%d chunk=%d", n, workers, chunk)
		}
	}()
	coverageCheck(t, n, func(mark func(int)) {
		check(t, team.ForE(n, ForOptions{Policy: Dynamic, Chunk: chunk, SerialBelow: -1}, func(lo, hi, w int) {
			if lo >= hi || hi-lo > max(chunk, DefaultChunk) || w < 0 || w >= workers ||
				blockOf(lo, n, workers) != blockOf(hi-1, n, workers) {
				t.Errorf("worker %d ran chunk [%d,%d)", w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				mark(i)
			}
		}))
	})
}

func TestTeamDynamicCoverageProperty(t *testing.T) {
	teams := make([]*Team, 10)
	for w := 1; w <= 9; w++ {
		teams[w] = NewTeam(w)
		defer teams[w].Close()
	}
	// The corners by name: n below, at and just above W; chunks above the
	// block size, above n, and ones the block size is no multiple of.
	for w := 1; w <= 9; w++ {
		for _, n := range []int{1, 2, w - 1, w, w + 1, 3*w + 1, 97, 537} {
			for _, chunk := range []int{0, 1, 2, 3, 7, n/w + 1, n, n + 5, 1 << 62} {
				dynamicCoverage(t, teams[w], n, chunk)
			}
		}
	}
	property := func(nRaw, chunkRaw uint16, wRaw uint8) bool {
		dynamicCoverage(t, teams[int(wRaw%9)+1], int(nRaw%3000), int(chunkRaw%400))
		return !t.Failed()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTeamDynamicSingleWorkerOrder: one worker walks its block front to
// back, chunk by chunk — the order the 1-worker result lines
// (kerneltest.TestResultLinesGolden) are a function of.
func TestTeamDynamicSingleWorkerOrder(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	const n, chunk = 103, 10
	var los []int
	check(t, team.ForE(n, ForOptions{Policy: Dynamic, Chunk: chunk}, func(lo, hi, w int) {
		los = append(los, lo)
		if want := min(lo+chunk, n); hi != want {
			t.Errorf("chunk [%d,%d), want end %d", lo, hi, want)
		}
	}))
	if len(los) != (n+chunk-1)/chunk {
		t.Fatalf("%d chunks, want %d", len(los), (n+chunk-1)/chunk)
	}
	for i, lo := range los {
		if lo != i*chunk {
			t.Fatalf("chunk %d starts at %d, want %d", i, lo, i*chunk)
		}
	}
}

// skewedLoop runs a Dynamic/1 loop in which block 0 is as slow as the test
// needs: whoever claims a chunk of it for the first time waits there until
// every worker has done so (or ten seconds have passed), so the block cannot
// be finished before all of them have left their own. It returns how many
// chunks of block 0 each worker ran.
func skewedLoop(t *testing.T, team *Team) []int64 {
	t.Helper()
	workers := team.Workers()
	n := 16 * workers
	ran := make([]int64, workers)
	var arrived atomic.Int64
	all := make(chan struct{})
	check(t, team.ForE(n, ForOptions{Policy: Dynamic, Chunk: 1}, func(lo, hi, w int) {
		if blockOf(lo, n, workers) != 0 {
			return
		}
		if ran[w]++; ran[w] > 1 {
			return
		}
		if arrived.Add(1) == int64(workers) {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("worker %d waited alone in block 0", w)
		}
	}))
	return ran
}

// TestTeamDynamicSkewedLoopIsShared: the balance a shared cursor gave is
// kept — a block that is slower than the rest is finished by everyone.
func TestTeamDynamicSkewedLoopIsShared(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var sum int64
	for w, chunks := range skewedLoop(t, team) {
		if chunks == 0 {
			t.Errorf("worker %d ran no chunk of the slow block", w)
		}
		sum += chunks
	}
	if sum != 16 {
		t.Errorf("%d chunks of block 0 ran, want 16", sum)
	}
}

// thiefLoop runs a Dynamic/1 loop whose first foreign claim calls fail (on
// the thief, inside the victim's block). Worker 0 holds its first chunk
// until then, so there is a block left to steal from and the failure
// happens while it is still being worked.
func thiefLoop(t *testing.T, ctx context.Context, team *Team, fail func()) error {
	workers := team.Workers()
	n := 1000 * workers
	var once sync.Once
	stolen := make(chan struct{})
	return team.ForCtx(ctx, n, ForOptions{Policy: Dynamic, Chunk: 1}, func(lo, hi, w int) {
		switch {
		case blockOf(lo, n, workers) != w:
			once.Do(func() {
				close(stolen)
				fail()
			})
		case lo == 0:
			select {
			case <-stolen:
			case <-time.After(10 * time.Second):
				t.Error("nobody left its own block")
			}
		}
	})
}

// checkTeamReusable runs a full Dynamic loop on the team that has just
// failed one, closes it and waits for its goroutines to go.
func checkTeamReusable(t *testing.T, team *Team, before int) {
	t.Helper()
	dynamicCoverage(t, team, 1000, 7)
	team.Close()
	settleGoroutines(t, before)
}

func TestTeamDynamicCancelWhileStealing(t *testing.T) {
	before := runtime.NumGoroutine()
	team := NewTeam(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := thiefLoop(t, ctx, team, cancel); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	checkTeamReusable(t, team, before)
}

func TestTeamDynamicPanicWhileStealing(t *testing.T) {
	before := runtime.NumGoroutine()
	team := NewTeam(3)
	err := thiefLoop(t, nil, team, func() { panic("thief") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "thief" {
		t.Fatalf("got %v, want *PanicError(thief)", err)
	}
	checkTeamReusable(t, team, before)
}

func TestTeamDynamicAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the claim path")
	}
	team := NewTeam(4)
	defer team.Close()
	body := func(lo, hi, w int) {}
	run := func() { check(t, team.ForCtx(context.Background(), 997, ForOptions{Policy: Dynamic, Chunk: 8}, body)) }
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Errorf("a Dynamic ForCtx allocates %.1f times", got)
	}
}
