package sched

import (
	"context"
	"errors"
	"testing"
)

type loopBinding struct {
	name   string
	onPool bool
	bind   func(l *Loop)
}

// loopBindings lists every way a Loop can be bound; bind re-binds l, so one
// Loop value can walk the whole table.
func loopBindings(team *Team, pool *Pool) []loopBinding {
	tbb := func(part Partitioner) func(*Loop) {
		return func(l *Loop) { l.OnTBB(pool, part, 8) }
	}
	const onTeam, onPool = false, true
	return []loopBinding{
		// SerialBelow -1: the tiny n of the table must still dispatch.
		{"team-dynamic", onTeam, func(l *Loop) { l.OnTeam(team, ForOptions{Policy: Dynamic, Chunk: 8, SerialBelow: -1}) }},
		{"team-static", onTeam, func(l *Loop) { l.OnTeam(team, ForOptions{Policy: Static, SerialBelow: -1}) }},
		{"cilk", onPool, func(l *Loop) { l.OnCilk(pool, 8) }},
		{"tbb-simple", onPool, tbb(SimplePartitioner)},
		{"tbb-auto", onPool, tbb(AutoPartitioner)},
		{"tbb-affinity", onPool, tbb(AffinityPartitioner)},
	}
}

// TestLoopContract holds the one loop runner to the ForCtx contract on
// every binding: exactly-once coverage with worker ids below Workers(),
// panics contained and the Loop usable afterwards, cancellation reported,
// and no allocation in a warmed Run.
func TestLoopContract(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	pool := NewPool(4)
	defer pool.Close()

	for _, b := range loopBindings(team, pool) {
		t.Run(b.name, func(t *testing.T) {
			var l Loop
			b.bind(&l)
			if l.Workers() != 4 {
				t.Fatalf("Workers() = %d, want 4", l.Workers())
			}
			for _, n := range []int{0, 1, 7, 997} {
				coverageCheck(t, n, func(mark func(int)) {
					check(t, l.Run(context.Background(), n, func(lo, hi, w int) {
						if w < 0 || w >= l.Workers() {
							t.Errorf("worker id %d outside [0,%d)", w, l.Workers())
						}
						for i := lo; i < hi; i++ {
							mark(i)
						}
					}))
				})
			}

			err := l.Run(nil, 100, func(lo, hi, w int) { panic("boom") })
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "boom" {
				t.Fatalf("panicking body returned %v, want *PanicError(boom)", err)
			}
			coverageCheck(t, 100, func(mark func(int)) {
				check(t, l.Run(nil, 100, func(lo, hi, w int) {
					for i := lo; i < hi; i++ {
						mark(i)
					}
				}))
			})

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := l.Run(ctx, 100, func(lo, hi, w int) {}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
			}

			// Every binding, affinity's included, runs allocation-free once
			// the deques' arrays are warm (not countable under -race).
			if raceEnabled {
				return
			}
			body := func(lo, hi, w int) {}
			run := func() { l.Run(nil, 997, body) }
			run()
			if got := testing.AllocsPerRun(20, run); got != 0 {
				t.Errorf("warmed Run allocates %.1f times", got)
			}
		})
	}
}

// TestLoopRebind walks one Loop value through every binding and back: a
// binder must leave nothing of the previous binding behind.
func TestLoopRebind(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	pool := NewPool(5)
	defer pool.Close()
	bindings := loopBindings(team, pool)
	var l Loop
	for _, i := range []int{0, 2, 5, 1, 3, 0, 4, 2} {
		b := bindings[i]
		b.bind(&l)
		want := team.Workers()
		if b.onPool {
			want = pool.Workers()
		}
		if l.Workers() != want {
			t.Fatalf("%s: Workers() = %d, want %d", b.name, l.Workers(), want)
		}
		coverageCheck(t, 503, func(mark func(int)) {
			check(t, l.Run(nil, 503, func(lo, hi, w int) {
				if w >= want {
					t.Errorf("%s: worker id %d, want < %d", b.name, w, want)
				}
				for i := lo; i < hi; i++ {
					mark(i)
				}
			}))
		})
	}
}
