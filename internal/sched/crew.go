package sched

import (
	"runtime"
	"sync/atomic"
	"time"
)

// crew is the worker group an engine runs both disciplines on — a loop's
// chunks are claimed over it, a run's tasks popped and stolen on it: n − 1
// resident helper goroutines plus whoever calls run, who works as worker 0 —
// OpenMP's master thread. It knows nothing of loops or tasks: a generation
// is one call of fn on every worker, published by bumping one word and over
// when the last helper has counted itself out.
//
//	caller                              helper w
//	(writes what fn will read)          await gen == seen+1   spin, then park
//	pending = n − 1; gen++         →    fn(w)
//	rouse the helpers that parked       pending−−; the last one rouses the
//	fn(0)                               caller if it parked
//	await pending == 0             ←
//
// The bump of gen orders everything the caller wrote before it ahead of
// every fn(w) of the generation, and the countdown of pending orders every
// fn(w) ahead of run's return.
type crew struct {
	fn      func(worker int)
	leave   bool         // set by dismiss before the last publish: helpers exit instead of running fn
	gen     atomic.Int64 // generations published
	pending atomic.Int64 // helpers still inside the current generation
	master  sleeper      // where the caller waits for pending to drain
	helpers []sleeper    // where helper w+1 waits for the next generation
}

// spinBudget is how long a worker polls for its next event before it parks,
// spinYield how many polls pass between two runtime.Gosched calls (they keep
// a team wider than GOMAXPROCS moving while some of it spins). The budget is
// a constant because of what it is sized against: not the gap between two
// jobs, which no constant fits, but the serial stretch between two loops of
// one kernel (merge the per-worker queues, swap the frontiers: about 5 µs
// between two BFS levels), with an order of magnitude to spare. A helper that
// spins through it meets the next loop within a poll; one that parked costs a
// channel send and a trip through the Go scheduler, 10 µs and more.
const (
	spinBudget = 50 * time.Microsecond
	spinYield  = 32
)

// sleeper is one waiter's parking spot, on a cache line of its own.
type sleeper struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: at most one wake is ever in flight
	_      [48]byte
}

// await returns once word reads want: it polls for spinBudget, then raises
// parked, looks once more and blocks on wake. Whoever moves word calls rouse
// afterwards, so of the waiter's look after raising the flag and the mover's
// look at the flag after moving the word at least one sees the other
// (sync/atomic is sequentially consistent), and the flag's compare-and-swap
// decides who lowers it: the waiter goes on without a wake, or the mover
// sends exactly one and the waiter consumes it.
//
// A wake is a hint, not the event: a mover descheduled between moving the
// word and rousing delivers its wake a generation late, to a waiter that is
// by then waiting for something else. Hence the outer loop — every wake is
// followed by a fresh look at the word.
func (s *sleeper) await(word *atomic.Int64, want int64) {
	for {
		var start time.Time
		for polls := 1; ; polls++ {
			if word.Load() == want {
				return
			}
			if polls%spinYield != 0 {
				continue
			}
			if start.IsZero() {
				start = time.Now()
			} else if time.Since(start) > spinBudget {
				break
			}
			runtime.Gosched()
		}
		s.parked.Store(true)
		if word.Load() == want && s.parked.CompareAndSwap(true, false) {
			return
		}
		<-s.wake
	}
}

// rouse wakes the waiter if it has parked. Call after moving its word.
func (s *sleeper) rouse() {
	if s.parked.Load() && s.parked.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
	}
}

// newCrew starts the n − 1 helpers of a crew of n workers running fn. A crew
// of one owns no goroutine.
func newCrew(n int, fn func(worker int)) *crew {
	c := &crew{fn: fn, helpers: make([]sleeper, n-1)}
	c.master.wake = make(chan struct{}, 1)
	for i := range c.helpers {
		c.helpers[i].wake = make(chan struct{}, 1)
		go c.help(i + 1)
	}
	return c
}

// help is the life of helper w: one fn(w) per generation until dismissed.
func (c *crew) help(w int) {
	me := &c.helpers[w-1]
	for seen := int64(0); ; seen++ {
		me.await(&c.gen, seen+1)
		leave := c.leave // read once: past the countdown the caller may be in dismiss
		if !leave {
			c.fn(w)
		}
		if c.pending.Add(-1) == 0 {
			c.master.rouse()
		}
		if leave {
			return
		}
	}
}

// run executes one generation — fn on every worker, the caller's goroutine
// being worker 0 — and returns when all have returned. One run at a time.
func (c *crew) run() {
	c.publish()
	c.fn(0)
	c.master.await(&c.pending, 0)
}

// dismiss publishes the generation in which the helpers leave and returns
// once each has taken its last look at the crew. No run may follow; a second
// dismiss does nothing.
func (c *crew) dismiss() {
	if c.leave {
		return
	}
	c.leave = true
	c.publish()
	c.master.await(&c.pending, 0)
}

func (c *crew) publish() {
	c.pending.Store(int64(len(c.helpers)))
	c.gen.Add(1)
	for i := range c.helpers {
		c.helpers[i].rouse()
	}
}
