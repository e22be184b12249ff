package bfs

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"micgraph/internal/gen"
	"micgraph/internal/sched"
)

func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), want)
}

// TestBlockTeamCtxCancelMidBFS cancels deterministically at the very first
// chunk claim (via the team's injection hook) and checks that the
// traversal stops early, reports the context error, and leaks nothing.
func TestBlockTeamCtxCancelMidBFS(t *testing.T) {
	before := runtime.NumGoroutine()
	g := gen.Grid2D(60, 60)
	team := sched.NewTeam(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	team.SetInject(func(site string, worker int) { cancel() })

	res, err := NewScratch().BlockTeam(ctx, g, 0, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 8},
		DefaultBlockSize, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A 60x60 grid from a corner has 119 BFS levels; cancelling at the
	// first chunk must leave nearly all of it untraversed.
	full := Sequential(g, 0)
	if res.NumLevels >= full.NumLevels {
		t.Errorf("traversal completed (%d levels) despite cancellation", res.NumLevels)
	}
	team.SetInject(nil)
	team.Close()
	settleGoroutines(t, before)
}

// TestCtxVariantsNilCtxMatchSequential checks the entry points accept a nil
// context and the zero-value options (default block size and grain).
func TestCtxVariantsNilCtxMatchSequential(t *testing.T) {
	g := gen.Grid2D(20, 20)
	want := Sequential(g, 0)
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()

	check := func(name string, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Validate(g, 0, res.Levels); err != nil {
			t.Fatalf("%s: invalid BFS: %v", name, err)
		}
		if res.NumLevels != want.NumLevels {
			t.Errorf("%s: %d levels, want %d", name, res.NumLevels, want.NumLevels)
		}
	}
	res, err := NewScratch().BlockTeam(nil, g, 0, team, sched.ForOptions{}, 0, true)
	check("BlockTeam", res, err)
	res, err = NewScratch().BlockTBB(nil, g, 0, pool, sched.SimplePartitioner, 8, 0, true)
	check("BlockTBB", res, err)
	res, err = NewScratch().BagCilk(nil, g, 0, pool, 0)
	check("BagCilk", res, err)
	res, err = NewScratch().TLSTeam(nil, g, 0, team, sched.ForOptions{})
	check("TLSTeam", res, err)
}

// TestBagCilkCtxCancelled checks an already-cancelled context aborts the
// bag traversal before it visits anything beyond the first level.
func TestBagCilkCtxCancelled(t *testing.T) {
	g := gen.Grid2D(40, 40)
	pool := sched.NewPool(4)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewScratch().BagCilk(ctx, g, 0, pool, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res.Processed != 0 {
		t.Errorf("processed %d vertices under a pre-cancelled context", res.Processed)
	}
}
