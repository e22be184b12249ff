package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// spawnTree covers [lo, hi) with a binary Spawn tree, leaves of at most 4.
func spawnTree(c *Ctx, lo, hi int, body func(lo, hi, w int)) {
	if hi-lo <= 4 {
		body(lo, hi, c.Worker())
		return
	}
	mid := lo + (hi-lo)/2
	c.Spawn(func(cc *Ctx) { spawnTree(cc, lo, mid, body) })
	spawnTree(c, mid, hi, body)
}

// TestEngineAlternatesDisciplines drives one engine through loops and task
// runs in turn, the way a kernels.Runtime serves its table: every region
// covers its indices exactly once, a region's panic or cancellation is its
// own (the next region, of the other discipline, neither fails with it nor
// sees it), one SetInject call sees both disciplines' sites, and Close ends
// both with ErrClosed.
func TestEngineAlternatesDisciplines(t *testing.T) {
	const n = 1000
	for _, w := range []int{1, 2, 4} {
		e := NewTeam(w)
		var teamSite, poolSite atomic.Bool
		e.SetInject(func(site string, _ int) {
			switch site {
			case "team/chunk":
				teamSite.Store(true)
			case "pool/task":
				poolSite.Store(true)
			default:
				t.Errorf("hook fired at unknown site %q", site)
			}
		})
		aff := new(AffinityState)
		onPool := func(body func(lo, hi, w int)) func(lo, hi int, c *Ctx) {
			return func(lo, hi int, c *Ctx) { body(lo, hi, c.Worker()) }
		}
		tbb := func(part Partitioner) func(context.Context, func(lo, hi, w int)) error {
			return func(ctx context.Context, body func(lo, hi, w int)) error {
				return ParallelForRangeCtx(ctx, e, Range{0, n, 4}, part, aff, onPool(body))
			}
		}
		dynamic := func(ctx context.Context, body func(lo, hi, w int)) error {
			return e.ForCtx(ctx, n, ForOptions{Policy: Dynamic, Chunk: 4, SerialBelow: -1}, body)
		}
		inline := func(ctx context.Context, body func(lo, hi, w int)) error {
			return e.ForCtx(ctx, n, ForOptions{Policy: Dynamic, SerialBelow: n}, body)
		}
		// Loops and runs alternate, so every region follows one of the
		// other discipline.
		regions := []struct {
			name string
			run  func(context.Context, func(lo, hi, w int)) error
		}{
			{"dynamic", dynamic},
			{"cilk_for", func(ctx context.Context, body func(lo, hi, w int)) error {
				return e.ParallelForCtx(ctx, n, 4, onPool(body))
			}},
			{"inline", inline},
			{"tbb-simple", tbb(SimplePartitioner)},
			{"dynamic", dynamic},
			{"tbb-auto", tbb(AutoPartitioner)},
			{"inline", inline},
			{"tbb-affinity", tbb(AffinityPartitioner)},
			{"dynamic", dynamic},
			{"spawn", func(ctx context.Context, body func(lo, hi, w int)) error {
				return e.RunCtx(ctx, func(c *Ctx) { spawnTree(c, 0, n, body) })
			}},
		}
		// A panic and a cancellation are each followed by a clean region;
		// over four rounds every position runs in every mode.
		modes := []string{"ok", "panic", "ok", "cancel"}
		for round := range modes {
			for i, r := range regions {
				mode := modes[(round+i)%len(modes)]
				name := fmt.Sprintf("W=%d round %d %s %s", w, round, r.name, mode)
				switch mode {
				case "ok":
					coverageCheck(t, n, func(mark func(int)) {
						if err := r.run(context.Background(), func(lo, hi, w int) {
							for i := lo; i < hi; i++ {
								mark(i)
							}
						}); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					})
				case "panic":
					err := r.run(nil, func(lo, hi, w int) {
						if lo <= n/2 && n/2 < hi {
							panic(name)
						}
					})
					var pe *PanicError
					if !errors.As(err, &pe) || pe.Value != name {
						t.Fatalf("%s: got %v, want its own *PanicError", name, err)
					}
				case "cancel":
					ctx, cancel := context.WithCancel(context.Background())
					err := r.run(ctx, func(lo, hi, w int) {
						if lo <= n/2 && n/2 < hi {
							cancel()
						}
					})
					cancel()
					var pe *PanicError
					if !errors.Is(err, context.Canceled) || errors.As(err, &pe) {
						t.Fatalf("%s: got %v, want context.Canceled", name, err)
					}
				}
			}
		}
		if !teamSite.Load() || !poolSite.Load() {
			t.Errorf("W=%d: one hook saw team/chunk %v, pool/task %v; want both", w, teamSite.Load(), poolSite.Load())
		}

		e.Close()
		for _, r := range regions {
			if err := r.run(nil, func(lo, hi, w int) {}); !errors.Is(err, ErrClosed) {
				t.Errorf("W=%d: %s on a closed engine: %v, want ErrClosed", w, r.name, err)
			}
		}
	}
}
