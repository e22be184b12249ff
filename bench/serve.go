package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"micgraph/internal/bfs"
	"micgraph/internal/components"
	"micgraph/internal/gen"
	"micgraph/internal/irregular"
	"micgraph/internal/serve"
	"micgraph/internal/xrand"
)

// servedVariant is one kernel kind×variant the daemon accepts. kernel is the
// end-to-end metric its exec spans feed (-1: none), layer the
// serve.exec_ms.<layer> bucket of the traced run.
type servedVariant struct {
	kind, variant string
	kernel        int
	layer         string
}

// servedVariants is every kernel job the daemon accepts; the mix draws over
// all of them alike. Sweep and export jobs are not part of the mix.
var servedVariants = []servedVariant{
	{"bfs", "seq", -1, "bfs"},
	{"bfs", "omp-block", -1, "bfs"},
	{"bfs", "omp-block-relaxed", kBFS, "bfs"},
	{"bfs", "tbb-block", -1, "bfs"},
	{"bfs", "tbb-block-relaxed", -1, "bfs"},
	{"bfs", "bag", -1, "bfs"},
	{"bfs", "tls", -1, "bfs"},
	{"bfs", "hybrid", kHybrid, "hybrid"},
	{"coloring", "seq", -1, "coloring"},
	{"coloring", "openmp", kColor, "coloring"},
	{"coloring", "cilk", -1, "coloring"},
	{"coloring", "tbb", -1, "coloring"},
	{"components", "seq", -1, "components"},
	{"components", "labelprop", kComponents, "components"},
	{"components", "pointerjump", -1, "components"},
	{"irregular", "openmp", kIrregular, "irregular"},
	{"irregular", "cilk", -1, "irregular"},
	{"irregular", "tbb", -1, "irregular"},
}

// mix is the traffic of serve-mix. Jobs come in decks: one deck holds every
// variant once on every resident graph (cache hits) plus 15 % jobs naming a
// graph that is not resident (generate, insert, evict), in seeded order. A
// deck rather than independent draws, so that every seed asks for the same
// work and only its order changes.
type mix struct {
	resident []serve.GraphSpec
	other    []serve.GraphSpec
	misses   int // per deck
}

func newMix(smoke bool) mix {
	names := make([]string, 0, 7)
	for _, c := range gen.Suite() {
		names = append(names, c.Name)
	}
	hitScale, missScales := 4, []int{5, 6, 7}
	if smoke {
		names, hitScale, missScales = names[:2], 16, []int{20, 24}
	}
	var m mix
	for _, n := range names {
		m.resident = append(m.resident, serve.GraphSpec{Suite: n, Scale: hitScale})
		for _, s := range missScales {
			m.other = append(m.other, serve.GraphSpec{Suite: n, Scale: s})
		}
	}
	hits := len(servedVariants) * len(m.resident)
	m.misses = int(math.Round(float64(hits) * 15 / 85))
	return m
}

// jobCase is one job of a deck.
type jobCase struct {
	spec    serve.JobSpec
	variant int  // index into servedVariants
	graph   int  // index into mix.resident (hit) or mix.other (miss)
	hit     bool // names a resident graph
}

// deck returns the jobs of the cycle-th deck for seed, in submission order.
func (m mix) deck(seed uint64, cycle int) []jobCase {
	rng := xrand.New(seed*0x9e3779b97f4a7c15 + uint64(cycle) + 1)
	var d []jobCase
	job := func(v int, gs serve.GraphSpec) serve.JobSpec {
		return serve.JobSpec{Kind: servedVariants[v].kind, Variant: servedVariants[v].variant, Graph: gs}
	}
	for v := range servedVariants {
		for gi, gs := range m.resident {
			d = append(d, jobCase{spec: job(v, gs), variant: v, graph: gi, hit: true})
		}
	}
	for i := 0; i < m.misses; i++ {
		v, gi := rng.Intn(len(servedVariants)), rng.Intn(len(m.other))
		d = append(d, jobCase{spec: job(v, m.other[gi]), variant: v, graph: gi})
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// servedOracle is what the in-process sequential kernels say a job on one
// graph must answer.
type servedOracle struct {
	arcs       int64
	bytes      int64
	maxColors  int
	levels     int
	reached    int
	components int
	checksum   float64
}

// oracleFor runs the sequential references on the graph a spec names, with
// the daemon's defaults: BFS from |V|/2, five irregular iterations.
func oracleFor(gs serve.GraphSpec) (servedOracle, error) {
	g, _, err := buildMesh(gs.Suite, gs.Scale)
	if err != nil {
		return servedOracle{}, err
	}
	o := servedOracle{arcs: g.NumArcs(), bytes: serve.GraphBytes(g), maxColors: g.MaxDegree() + 1}
	ref := bfs.Sequential(g, int32(g.NumVertices()/2))
	o.levels = ref.NumLevels
	for _, l := range ref.Levels {
		if l != bfs.Unvisited {
			o.reached++
		}
	}
	o.components = components.Sequential(g).Count
	for _, v := range irregular.Sequential(g, irregular.InitialState(g.NumVertices()), irregularIters) {
		o.checksum += v
	}
	return o, nil
}

// servedLine is the subset of the daemon's result-stream lines the oracle
// compares.
type servedLine struct {
	Type       string  `json:"type"`
	Error      string  `json:"error"`
	Levels     int     `json:"levels"`
	Reached    int     `json:"reached"`
	Colors     int     `json:"colors"`
	Components int     `json:"components"`
	Checksum   float64 `json:"checksum"`
}

// verify checks a served result line against the oracle for its spec.
func (o servedOracle) verify(kind string, line servedLine, broken bool) error {
	levels := o.levels
	if broken {
		levels++
	}
	switch kind {
	case "bfs":
		if line.Levels != levels || line.Reached != o.reached {
			return fmt.Errorf("served levels=%d reached=%d, oracle levels=%d reached=%d", line.Levels, line.Reached, levels, o.reached)
		}
	case "coloring":
		if line.Colors < 1 || line.Colors > o.maxColors {
			return fmt.Errorf("served %d colors, want 1..%d", line.Colors, o.maxColors)
		}
	case "components":
		if line.Components != o.components {
			return fmt.Errorf("served %d components, oracle %d", line.Components, o.components)
		}
	case "irregular":
		if math.Abs(line.Checksum-o.checksum) > 1e-9*math.Abs(o.checksum) {
			return fmt.Errorf("served checksum %v, oracle %v", line.Checksum, o.checksum)
		}
	}
	return nil
}

// daemon is an in-process micserved behind a loopback HTTP listener.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startDaemon(w int, cacheBytes int64) *daemon {
	srv := serve.New(serve.Config{Workers: 1, KernelWorkers: w, QueueDepth: 16, CacheBytes: cacheBytes})
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (d *daemon) stop() {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: daemon drain:", err)
	}
}

// submit runs one job to completion the way a daemon client does: POST
// /jobs, then stream GET /jobs/{id}/result to its end. It returns the job id,
// the result line and the client-observed latency.
func submit(hc *http.Client, base string, spec serve.JobSpec) (id string, line servedLine, lat time.Duration, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", line, 0, err
	}
	start := time.Now()
	resp, err := hc.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", line, 0, err
	}
	view, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", line, 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", line, 0, fmt.Errorf("submit refused: %s", resp.Status)
	}
	var jv struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(view, &jv); err != nil || jv.ID == "" {
		return "", line, 0, fmt.Errorf("submit: no job id in %q", view)
	}
	resp, err = hc.Get(base + "/jobs/" + jv.ID + "/result")
	if err != nil {
		return jv.ID, line, 0, err
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	if err != nil {
		return jv.ID, line, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return jv.ID, line, lat, fmt.Errorf("result stream: %s", resp.Status)
	}
	found := false
	for _, raw := range strings.Split(strings.TrimSpace(string(stream)), "\n") {
		var l servedLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			return jv.ID, line, lat, fmt.Errorf("result stream line %q: %w", raw, err)
		}
		switch l.Type {
		case "error":
			return jv.ID, line, lat, fmt.Errorf("job failed: %s", l.Error)
		case "result":
			line, found = l, true
		}
	}
	if !found {
		return jv.ID, line, lat, fmt.Errorf("result stream of %s has no result line", jv.ID)
	}
	return jv.ID, line, lat, nil
}

// jobSample is one finished job as the client saw it and as the daemon's
// spans attribute it.
type jobSample struct {
	jobCase
	latMS   float64
	spans   serve.Spans
	spanned bool // spans were read back
	err     error
}

// serveRig is the daemon, its traffic and the oracle for it.
type serveRig struct {
	m       mix
	d       *daemon
	hc      *http.Client
	clients int
	oracles map[string]servedOracle // by GraphSpec.Key
}

// newServeRig computes the oracle of every graph the mix can name. It starts
// no daemon; setup does.
func newServeRig(smoke bool) (*serveRig, error) {
	sr := &serveRig{
		m: newMix(smoke), clients: min(2, runtime.NumCPU()), oracles: map[string]servedOracle{},
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	for _, gs := range append(append([]serve.GraphSpec{}, sr.m.resident...), sr.m.other...) {
		o, err := oracleFor(gs)
		if err != nil {
			return nil, err
		}
		sr.oracles[gs.Key()] = o
	}
	return sr, nil
}

// cacheBytes is the daemon's cache budget: the resident graphs with a
// quarter to spare, so a non-resident graph fits but soon pushes something
// out.
func (sr *serveRig) cacheBytes() int64 {
	var sum int64
	for _, gs := range sr.m.resident {
		sum += sr.oracles[gs.Key()].bytes
	}
	return sum * 5 / 4
}

// setup starts a daemon and warms its cache with one job per resident graph.
func (sr *serveRig) setup(w int) error {
	sr.d = startDaemon(w, sr.cacheBytes())
	for _, gs := range sr.m.resident {
		spec := serve.JobSpec{Kind: "components", Variant: "seq", Graph: gs}
		if _, _, _, err := submit(sr.hc, sr.d.ts.URL, spec); err != nil {
			sr.d.stop()
			return fmt.Errorf("cache warm-up %s: %w", gs.Key(), err)
		}
	}
	return nil
}

func (sr *serveRig) close() {
	if sr.d != nil {
		sr.d.stop()
		sr.d = nil
	}
	sr.hc.CloseIdleConnections()
}

// runDeck submits one deck in a closed loop: each client sends its next job
// only once the previous one has streamed to its end. The daemon's own
// spans of every finished job are read back (an in-process lookup, no
// request), and with a tracer a span tree is recorded. It returns the
// samples in deck order and the deck's wall time.
func (sr *serveRig) runDeck(deck []jobCase, clients int, broken bool, tr *tracer, parent int) ([]jobSample, time.Duration) {
	base := sr.d.ts.URL
	samples := make([]jobSample, len(deck))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(deck) {
					return
				}
				jc := deck[i]
				t := time.Now()
				id, line, lat, err := submit(sr.hc, base, jc.spec)
				if err == nil {
					err = sr.oracles[jc.spec.Graph.Key()].verify(jc.spec.Kind, line, broken)
				}
				s := jobSample{jobCase: jc, latMS: ms(lat), err: err}
				if err == nil {
					if j, ok := sr.d.srv.JobByID(id); ok {
						s.spans, s.spanned = j.Spans(), true
						sr.traceJob(tr, parent, lane, t, lat, jc, s.spans)
					}
				}
				samples[i] = s
			}
		}(c + 1)
	}
	wg.Wait()
	return samples, time.Since(start)
}

// traceJob records one job's span tree: the client-observed interval with
// the daemon's queue, cache, exec and flush spans laid end to end inside it
// (the daemon reports their lengths, not their offsets).
func (sr *serveRig) traceJob(tr *tracer, parent, lane int, start time.Time, lat time.Duration, jc jobCase, sp serve.Spans) {
	if tr == nil {
		return
	}
	id := tr.add(parent, "serve", jc.spec.Kind+"/"+jc.spec.Variant, lane, start, lat,
		map[string]any{"graph": jc.spec.Graph.Key(), "hit": jc.hit})
	at := start
	for _, part := range []struct {
		name string
		ns   int64
	}{{"queue", sp.QueueNS}, {"cache", sp.CacheNS}, {"exec", sp.ExecNS}, {"flush", sp.FlushNS}} {
		d := time.Duration(part.ns)
		tr.add(id, "serve", part.name, lane, at, d, nil)
		at = at.Add(d)
	}
}

// tally books a deck's jobs as operations and returns the client latencies.
func (r *run) tally(samples []jobSample) []float64 {
	lats := make([]float64, 0, len(samples))
	for _, s := range samples {
		r.check(fmt.Sprintf("job %s/%s on %s", s.spec.Kind, s.spec.Variant, s.spec.Graph.Key()), s.err)
		lats = append(lats, s.latMS)
	}
	return lats
}

// execRates turns the daemon's exec spans of hit jobs into the five kernel
// metrics: what the kernel's default variant achieves inside a daemon worker
// (runtime construction, kernel, validation, result line), without the queue
// and HTTP time around it that op_ms carries. Per variant it is the median
// over all of its hit jobs of exec time per arc; a deck holds every resident
// graph equally often, so the mixture under the median is the same in every
// run.
func (sr *serveRig) execRates(samples []jobSample) [numKernels]float64 {
	var nsPerUnit [numKernels][]float64
	for _, s := range samples {
		k := servedVariants[s.variant].kernel
		if k < 0 || !s.hit || !s.spanned {
			continue
		}
		work := float64(sr.oracles[s.spec.Graph.Key()].arcs) // meshes are connected: a BFS reaches every arc
		if k == kIrregular {
			work *= irregularIters
		}
		nsPerUnit[k] = append(nsPerUnit[k], float64(s.spans.ExecNS)/work)
	}
	var rates [numKernels]float64
	for k, xs := range nsPerUnit {
		if m := median(xs); m > 0 {
			rates[k] = 1e3 / m // ns per unit → M units per second
		}
	}
	return rates
}

// serveWorkload is serve-mix: the seeded job mix against an in-process
// daemon, closed loop.
func (r *run) serveWorkload() error {
	root := r.tr.begin(0, "bench", r.cfg.workload)
	defer func() { r.tr.end(root, nil) }()

	sr, err := newServeRig(r.cfg.smoke)
	if err != nil {
		return err
	}
	defer sr.close()
	h := sha256.New()
	for c := 0; c < 2; c++ {
		b, err := json.Marshal(specsOf(sr.m.deck(r.cfg.seed, c)))
		if err != nil {
			return err
		}
		h.Write(b)
	}
	r.rep.InputHash = hexSum(h)
	r.rep.Inputs["deck_jobs"] = len(sr.m.deck(r.cfg.seed, 0))
	r.rep.Inputs["resident_graphs"] = len(sr.m.resident)
	r.rep.Inputs["clients"] = sr.clients
	r.rep.Inputs["loop"] = "closed"
	r.rep.Inputs["cache_bytes"] = sr.cacheBytes()

	st := &setupTimer{setup: func() (func(), error) {
		if err := sr.setup(r.w); err != nil {
			return nil, err
		}
		return sr.close, nil
	}}
	sid := r.tr.begin(root, "bench", "setup")
	_, err = st.first()
	r.tr.end(sid, nil)
	if err != nil {
		return err
	}

	// One untimed deck: fills the HTTP connection pool, grows every worker
	// scratch to its steady size, and is checked like any other.
	warm, _ := sr.runDeck(sr.m.deck(r.cfg.seed, 0), sr.clients, r.cfg.breakOracle, nil, 0)
	r.tally(warm)

	if r.cfg.trace {
		return r.tracedServeRun(root, sr)
	}

	var all []jobSample
	var lats, perS []float64
	cache0 := sr.d.srv.Cache().Stats()
	start := time.Now()
	decks := 0
	for ; decks < r.minOps(3) || time.Since(start) < r.budget(); decks++ {
		samples, d := sr.runDeck(sr.m.deck(r.cfg.seed, decks+1), sr.clients, false, nil, 0)
		lats = append(lats, r.tally(samples)...)
		all = append(all, samples...)
		perS = append(perS, float64(len(samples))/d.Seconds())
	}
	cache1 := sr.d.srv.Cache().Stats()
	r.note("cache", map[string]int64{
		"hits": cache1.Hits - cache0.Hits, "misses": cache1.Misses - cache0.Misses,
		"evictions": cache1.Evictions - cache0.Evictions,
	})
	sr.close()
	setupS, err := st.finish(r.setupRepeat())
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)
	r.set("op_ms", median(lats))
	r.set("ops_per_s", median(perS)) // per deck, so one eviction storm does not drag the figure
	rates := sr.execRates(all)
	for k, name := range kernelMetric {
		r.set(name, rates[k])
	}
	tail := tailPercentile(len(lats))
	r.rep.Samples["jobs"] = len(lats)
	r.rep.Samples["decks"] = decks
	r.rep.Samples["setups"] = len(st.secs)
	r.rep.Aliases = map[string]value{
		"jobs_per_s":                    {median(perS), "1/s"},
		"job_p50_ms":                    {median(lats), "ms"},
		fmt.Sprintf("job_p%g_ms", tail): {percentile(lats, tail), "ms"},
	}
	r.note("tail_percentile", tail)
	return nil
}

func specsOf(deck []jobCase) []serve.JobSpec {
	out := make([]serve.JobSpec, len(deck))
	for i, jc := range deck {
		out[i] = jc.spec
	}
	return out
}
