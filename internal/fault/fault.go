// Package fault is a deterministic, seed-driven fault injector for the
// hardened execution layer. It exists so the failure paths of the runtimes
// (worker panics and stalls), the graph loaders (read errors, truncation)
// and the machine simulator (straggler cores) can be exercised
// systematically and *replayed exactly*: every decision comes from an
// xrand stream derived from the injector seed and the site name, never
// from the clock or from goroutine scheduling.
//
// A site is a named injection point (e.g. "team/chunk/panic",
// "graphio/read/err", "mic/straggler"). Each site owns an independent
// generator stream seeded from (seed, hash(site)), so enabling or firing
// one site never perturbs the decision sequence of another — two runs with
// the same seed and the same per-site call counts make identical
// decisions regardless of how calls from different sites interleave.
//
// Sites fire either probabilistically (Enable with a rate) or at exact
// call indices (EnableAt), the latter giving fully deterministic failure
// placement even when concurrent workers race to make the calls: the
// *set* of firing calls is fixed, only which worker draws the short straw
// varies. A nil *Injector is valid everywhere and never fires, so
// instrumented code needs no nil checks.
package fault

import (
	"fmt"
	"io"
	"sync"
	"time"

	"micgraph/internal/xrand"
)

// Fault is the error reported by an injected failure.
type Fault struct {
	Site string // injection point that fired
	Call int64  // 1-based call index at which it fired
}

// Error describes the injected failure.
func (f *Fault) Error() string {
	return fmt.Sprintf("fault: injected failure at %s (call %d)", f.Site, f.Call)
}

// site is the per-injection-point state: its own generator stream, firing
// rule, magnitude parameter and call counters.
type site struct {
	rng   *xrand.Rand
	rate  float64
	at    map[int64]bool // exact firing call indices; overrides rate
	param float64
	calls int64
	fired int64
}

// Injector is a deterministic fault source. The zero value is unusable;
// create with New. All methods are safe for concurrent use and safe on a
// nil receiver (a nil injector never fires).
type Injector struct {
	seed  uint64
	mu    sync.Mutex
	sites map[string]*site
}

// New returns an injector whose every decision derives from seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, sites: make(map[string]*site)}
}

// fnv1a hashes a site name (FNV-1a, 64-bit) for stream separation.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (in *Injector) site(name string) *site {
	s := in.sites[name]
	if s == nil {
		s = &site{rng: xrand.New(in.seed ^ fnv1a(name)), param: -1}
		in.sites[name] = s
	}
	return s
}

// Enable arms a site to fire each call independently with the given
// probability in [0, 1]. Returns the injector for chaining.
func (in *Injector) Enable(name string, rate float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.site(name).rate = rate
	return in
}

// EnableAt arms a site to fire at exactly the given 1-based call indices —
// the fully deterministic placement used by tests.
func (in *Injector) EnableAt(name string, calls ...int64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.site(name)
	if s.at == nil {
		s.at = make(map[int64]bool, len(calls))
	}
	for _, c := range calls {
		s.at[c] = true
	}
	return in
}

// SetParam attaches a magnitude to a site (e.g. the slowdown fraction of a
// straggler core). Returns the injector for chaining.
func (in *Injector) SetParam(name string, v float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.site(name).param = v
	return in
}

// Param returns the site's magnitude, or def when none was set.
func (in *Injector) Param(name string, def float64) float64 {
	if in == nil {
		return def
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.sites[name]; ok && s.param >= 0 {
		return s.param
	}
	return def
}

// Fire records one call at the site and reports whether it fires. A nil
// injector or an unarmed site never fires (but unarmed sites on a non-nil
// injector still count calls, so placements stay reproducible when a site
// is enabled later in an identical run).
func (in *Injector) Fire(name string) bool {
	return in.FireErr(name) != nil
}

// FireErr is Fire returning the *Fault (carrying site and call index) when
// the site fires, nil otherwise.
func (in *Injector) FireErr(name string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.site(name)
	s.calls++
	fired := false
	if s.at != nil {
		fired = s.at[s.calls]
	} else if s.rate > 0 {
		fired = s.rng.Float64() < s.rate
	}
	if !fired {
		return nil
	}
	s.fired++
	return &Fault{Site: name, Call: s.calls}
}

// Calls returns how many times the site has been consulted.
func (in *Injector) Calls(name string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.sites[name]; ok {
		return s.calls
	}
	return 0
}

// Fired returns how many times the site has fired.
func (in *Injector) Fired(name string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.sites[name]; ok {
		return s.fired
	}
	return 0
}

// Reader wraps r with two injection sites derived from name:
//
//   - name+"/err": the Read call fails with a *Fault;
//   - name+"/truncate": the stream ends early — this and all subsequent
//     reads return io.EOF, which loaders expecting more bytes surface as
//     io.ErrUnexpectedEOF.
//
// Each Read consults both sites once, so byte-for-byte identical read
// sequences fail at identical offsets. A nil injector returns r unchanged.
func (in *Injector) Reader(name string, r io.Reader) io.Reader {
	if in == nil {
		return r
	}
	return &faultReader{in: in, name: name, r: r}
}

type faultReader struct {
	in        *Injector
	name      string
	r         io.Reader
	truncated bool
}

func (fr *faultReader) Read(p []byte) (int, error) {
	if err := fr.in.FireErr(fr.name + "/err"); err != nil {
		return 0, err
	}
	if fr.truncated || fr.in.Fire(fr.name+"/truncate") {
		fr.truncated = true
		return 0, io.EOF
	}
	return fr.r.Read(p)
}

// Writer wraps w with the injection site name+"/err": a firing Write call
// fails with a *Fault before touching the underlying writer, so
// byte-for-byte identical write sequences fail at identical offsets. A nil
// injector returns w unchanged.
func (in *Injector) Writer(name string, w io.Writer) io.Writer {
	if in == nil {
		return w
	}
	return &faultWriter{in: in, name: name, w: w}
}

type faultWriter struct {
	in   *Injector
	name string
	w    io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if err := fw.in.FireErr(fw.name + "/err"); err != nil {
		return 0, err
	}
	return fw.w.Write(p)
}

// SchedHook returns a fault hook for sched.Team.SetInject /
// sched.Pool.SetInject. At every boundary the runtimes report (site names
// "team/chunk" and "pool/task"), it consults site+"/panic" — panicking
// with the *Fault, which the runtimes contain and surface as a
// *sched.PanicError — and site+"/stall", sleeping for stall to model a
// straggling worker.
func (in *Injector) SchedHook(stall time.Duration) func(site string, worker int) {
	return func(site string, worker int) {
		if err := in.FireErr(site + "/panic"); err != nil {
			panic(err)
		}
		if in.Fire(site + "/stall") {
			time.Sleep(stall)
		}
	}
}
