package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"micgraph/internal/core"
	"micgraph/internal/mic"
)

// goldenFigures is the SHA-256 of core.WriteJSON(core.All(...)) on the
// scale-8 suite. The simulator is deterministic, so every pass on every
// commit must reproduce it; a simulator-speed change that alters it has
// changed simulated results, not just host time. Floating-point contraction
// differs between architectures, so the golden binds on amd64 only.
//
//go:embed golden/figures_scale8.sha256
var goldenFigures string

// figuresPass regenerates every paper figure once and renders them as JSON:
// the operation of the figures workload.
func figuresPass(suite *core.Suite, knf, host *mic.Machine) (sha string, err error) {
	var buf bytes.Buffer
	if err := core.WriteJSON(&buf, core.All(suite, knf, host)); err != nil {
		return "", fmt.Errorf("core.WriteJSON: %w", err)
	}
	return sha256Hex(buf.Bytes()), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// shaChecker holds every pass of a run to one digest, and that digest to
// the committed golden.
type shaChecker struct {
	r     *run
	first string
}

func (c *shaChecker) check(pass string, sha string) {
	if c.first == "" {
		c.first = sha
		c.r.note("core.json_sha256", sha)
		want := strings.TrimSpace(goldenFigures)
		if c.r.cfg.breakOracle {
			want = strings.Repeat("0", len(want))
		}
		var err error
		switch {
		case c.r.cfg.smoke && !c.r.cfg.breakOracle:
			// The golden is of the scale-8 suite; a smoke run only checks
			// that its passes agree with each other.
		case runtime.GOARCH != "amd64":
		case sha != want:
			err = fmt.Errorf("figures JSON digest %s, golden %s", sha, want)
		}
		c.r.check("figures golden", err)
		return
	}
	var err error
	if sha != c.first {
		err = fmt.Errorf("digest %s differs from the first pass's %s", sha, c.first)
	}
	c.r.check("figures "+pass+" repeatable", err)
}

// figuresWorkload regenerates the paper's figures on the simulator. The
// goroutine kernels do none of the work; they are timed on the probe graph
// (hood at the suite's scale) in a short phase of their own so that this
// workload, too, reports every end-to-end metric.
func (r *run) figuresWorkload() error {
	ctx := context.Background()
	scale := figuresScale(r.cfg.smoke)
	knf, host := mic.KNF(), mic.HostXeon()
	root := r.tr.begin(0, "bench", r.cfg.workload)
	defer func() { r.tr.end(root, nil) }()

	var suite *core.Suite
	var suiteS float64
	sha := &shaChecker{r: r}
	st := &setupTimer{setup: func() (func(), error) {
		t := time.Now()
		s, err := core.NewSuite(scale)
		if err != nil {
			return nil, err
		}
		suiteS = time.Since(t).Seconds()
		suite = s
		digest, err := figuresPass(suite, knf, host) // warm-up pass
		if err != nil {
			return nil, err
		}
		sha.check("warm-up", digest)
		return func() { suite = nil }, nil
	}}
	sid := r.tr.begin(root, "bench", "setup")
	teardown, err := st.first()
	r.tr.end(sid, nil)
	if err != nil {
		return err
	}

	// The probe graph comes out of the suite, so the kernels see exactly
	// the graph the trace builders walk.
	gs := kernelGraph(r.cfg.workload, r.cfg.smoke)
	g, _, err := suite.Find(gs.suite)
	if err != nil {
		return err
	}
	in := &graphInput{spec: gs, g: g}
	if err := pickSources(in, r.cfg.seed); err != nil {
		return err
	}
	rg := newRig(g, r.w)
	or := newOracle(g, rg.state, false)
	for p := 0; p < numSources; p++ {
		if _, err := rg.pass(ctx, in, p, nil, 0, r, or); err != nil {
			return err
		}
	}
	h := sha256.New()
	for _, sg := range suite.Graphs {
		hashGraph(h, sg)
	}
	fmt.Fprintf(h, "sources %v\n", in.sources)
	r.rep.InputHash = hexSum(h)
	r.rep.Inputs["suite_scale"] = scale
	r.rep.Inputs["probe_graph"] = gs.String()
	r.rep.Inputs["bfs_sources"] = in.sources

	if r.cfg.trace {
		defer rg.close()
		return r.tracedFiguresRun(ctx, root, suite, suiteS, knf, host, sha, in, rg)
	}

	// After every figures pass the probe kernels run probePasses passes:
	// about a twentieth of the time, spread over the whole timed phase so
	// that a slow stretch of the host cannot cover all of their samples.
	const probePasses = 16
	var ks kernelSamples
	var passMS []float64
	start := time.Now()
	for p := 0; p < r.minOps(5) || time.Since(start) < r.budget(); p++ {
		t := time.Now()
		digest, err := figuresPass(suite, knf, host)
		if err != nil {
			return err
		}
		passMS = append(passMS, ms(time.Since(t)))
		sha.check(fmt.Sprintf("pass %d", p), digest)
		if err := rg.kernelLoop(ctx, in, &ks, r.minOps(probePasses), 0); err != nil {
			return err
		}
	}
	r.setKernelRates(in, &ks)
	rg.close()
	teardown()
	setupS, err := st.finish(r.setupRepeat())
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)
	r.set("op_ms", median(passMS))
	r.set("ops_per_s", 1000/median(passMS))
	r.rep.Samples["passes"] = len(passMS)
	r.rep.Samples["setups"] = len(st.secs)
	r.rep.Aliases = map[string]value{"figures_s": {median(passMS) / 1000, "s"}}
	return nil
}
