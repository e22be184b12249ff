package serve

import (
	"context"
	"sync"
	"testing"

	"micgraph/internal/kernels"
	"micgraph/internal/xrand"
)

// TestServeJobTotalsConservation is the property-style unit-layer twin of
// the e2e chaos oracle's conservation invariant: under random concurrent
// interleavings of submit (fast, failing, and blocking specs), cancel and
// completion, every Totals() snapshot must satisfy
//
//	Submitted == Rejected + Succeeded + Failed + Cancelled + InFlight
//
// exactly — not eventually, not within slack — and at quiescence the
// terminal counts must tile Accepted and match a client-side ledger of
// every job the test was handed. Run under -race this doubles as the
// regression gate for the accounting's locking discipline.
func TestServeJobTotalsConservation(t *testing.T) {
	s := New(Config{Workers: 3, QueueDepth: 4})
	s.hookExec = func(ctx context.Context, j *Job) bool {
		switch j.Spec.Variant {
		case "block": // parks until cancelled (by the driver or the final sweep)
			<-ctx.Done()
			return true
		case "bogus": // runs for real and fails on the unknown variant
			return false
		default:
			return true // instant success
		}
	}

	const (
		drivers = 4
		iters   = 150
	)
	var (
		mu       sync.Mutex
		accepted []*Job
	)
	check := func(where string) {
		tot := s.Totals()
		if got := tot.Rejected + tot.Succeeded + tot.Failed + tot.Cancelled + tot.InFlight; got != tot.Submitted {
			t.Errorf("%s: conservation violated: %+v (rhs sum %d)", where, tot, got)
		}
		if tot.InFlight < 0 || tot.Accepted != tot.Submitted-tot.Rejected {
			t.Errorf("%s: inconsistent totals: %+v", where, tot)
		}
	}

	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for i := 0; i < iters; i++ {
				switch rng.Intn(10) {
				case 0, 1: // blocking job: needs a cancel to terminate
					spec := JobSpec{Kind: kernels.BFS, Variant: "block",
						Graph: GraphSpec{Suite: "pwtk", Scale: 8}}
					if j, err := s.Submit(spec, ""); err == nil {
						mu.Lock()
						accepted = append(accepted, j)
						mu.Unlock()
					}
				case 2: // malformed spec: rejected at validation
					if _, err := s.Submit(JobSpec{Kind: "nope"}, ""); err == nil {
						t.Error("malformed spec accepted")
					}
				case 3: // unknown variant: accepted, then fails at run time
					spec := JobSpec{Kind: kernels.BFS, Variant: "bogus",
						Graph: GraphSpec{Suite: "pwtk", Scale: 8}}
					if j, err := s.Submit(spec, ""); err == nil {
						mu.Lock()
						accepted = append(accepted, j)
						mu.Unlock()
					}
				case 4: // cancel a random job this test owns
					mu.Lock()
					if len(accepted) > 0 {
						accepted[rng.Intn(len(accepted))].Cancel()
					}
					mu.Unlock()
				case 5:
					check("mid-flight")
				default: // instant job; queue-full rejections happen naturally
					spec := JobSpec{Kind: kernels.BFS,
						Graph: GraphSpec{Suite: "pwtk", Scale: 8}}
					if j, err := s.Submit(spec, ""); err == nil {
						mu.Lock()
						accepted = append(accepted, j)
						mu.Unlock()
					}
				}
			}
		}(uint64(d) + 1)
	}
	wg.Wait()

	// Quiesce: cancel every still-blocked job, then drain.
	for _, j := range accepted {
		j.Cancel()
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("after drain")

	tot := s.Totals()
	if tot.InFlight != 0 {
		t.Errorf("in-flight after drain = %d, want 0: %+v", tot.InFlight, tot)
	}
	if got := int64(len(accepted)); tot.Accepted != got {
		t.Errorf("accepted = %d, ledger has %d", tot.Accepted, got)
	}
	// Cross-check the server's terminal totals against the ledger's ground
	// truth: every accepted job must be terminal, and the per-status counts
	// must match exactly.
	var succ, failed, cancelled int64
	for _, j := range accepted {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s stuck non-terminal after drain", j.ID)
		}
		switch j.Status() {
		case StatusSucceeded:
			succ++
		case StatusFailed:
			failed++
		case StatusCancelled:
			cancelled++
		default:
			t.Fatalf("job %s in non-terminal status %s after drain", j.ID, j.Status())
		}
	}
	if tot.Succeeded != succ || tot.Failed != failed || tot.Cancelled != cancelled {
		t.Errorf("totals %+v disagree with ledger (succ %d, failed %d, cancelled %d)",
			tot, succ, failed, cancelled)
	}
}
