// Package load is micload's engine: a deterministic, seeded trace
// synthesizer over phased arrival processes (steady / rps-sweep / burst),
// an open-loop replayer with a bounded client pool that drives a
// live micserved daemon, and the per-phase SLO report that merges
// client-observed latencies with the server's span attribution.
//
// Everything here is clock-disciplined: timestamps come from an injected
// telemetry.Clock (micvet's wallclock analyzer enforces it), and the
// synthesizer draws only from a seeded xrand generator, so the same seed
// always produces a byte-identical trace — the property CI's determinism
// check pins.
package load

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"micgraph/internal/kernels"
	"micgraph/internal/serve"
	"micgraph/internal/xrand"
)

// Phase kinds.
const (
	PhaseSteady = "steady" // constant RPS
	PhaseSweep  = "sweep"  // RPS ramps linearly RPS -> EndRPS
	PhaseBurst  = "burst"  // baseline RPS with a Gaussian burst of Mult x at At
)

// maxPhaseArrivals bounds one phase's peak rate times its duration, so a
// typo such as rps=1e12 is refused instead of materialising a trace that
// never finishes.
const maxPhaseArrivals = 1e6

// PhaseSpec is one phase of the synthesized workload.
type PhaseSpec struct {
	Name     string        `json:"name"`
	Kind     string        `json:"kind"`
	Duration time.Duration `json:"duration_ns"`
	RPS      float64       `json:"rps"`

	// EndRPS is the sweep target rate (sweep phases only).
	EndRPS float64 `json:"end_rps,omitempty"`
	// Mult, At, Width shape burst phases: the rate is multiplied by up to
	// Mult in a Gaussian bump centred at fraction At of the phase with
	// standard deviation Width (also a fraction of the phase).
	Mult  float64 `json:"mult,omitempty"`
	At    float64 `json:"at,omitempty"`
	Width float64 `json:"width,omitempty"`
}

// rateAt returns the instantaneous request rate at offset t into the phase.
func (p PhaseSpec) rateAt(t time.Duration) float64 {
	frac := 0.0
	if p.Duration > 0 {
		frac = float64(t) / float64(p.Duration)
	}
	switch p.Kind {
	case PhaseSweep:
		return p.RPS + (p.EndRPS-p.RPS)*frac
	case PhaseBurst:
		z := (frac - p.At) / p.Width
		return p.RPS * (1 + (p.Mult-1)*math.Exp(-z*z))
	default:
		return p.RPS
	}
}

// peakRate bounds rateAt over the phase.
func (p PhaseSpec) peakRate() float64 {
	switch p.Kind {
	case PhaseSweep:
		return math.Max(p.RPS, p.EndRPS)
	case PhaseBurst:
		return p.RPS * math.Max(1, p.Mult)
	default:
		return p.RPS
	}
}

// ParsePhases parses the -phases DSL: semicolon-separated phases, each a
// kind followed by comma-separated key=value fields, e.g.
//
//	steady,dur=10s,rps=25;sweep,dur=12s,rps=10,end=40;burst,dur=10s,rps=15,mult=8
//
// Supported keys: name, dur, rps, end (sweep), mult/at/width (burst).
func ParsePhases(s string) ([]PhaseSpec, error) {
	var phases []PhaseSpec
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ",")
		p := PhaseSpec{Kind: strings.TrimSpace(fields[0])}
		switch p.Kind {
		case PhaseSteady, PhaseSweep, PhaseBurst:
		default:
			return nil, fmt.Errorf("load: unknown phase kind %q (want steady, sweep or burst)", p.Kind)
		}
		p.Name = p.Kind
		// Burst defaults: peak in the middle, at 4x, fairly tight.
		if p.Kind == PhaseBurst {
			p.Mult, p.At, p.Width = 4, 0.5, 0.15
		}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("load: phase field %q is not key=value", f)
			}
			var err error
			switch k {
			case "name":
				p.Name = v
			case "dur":
				p.Duration, err = time.ParseDuration(v)
			case "rps":
				p.RPS, err = strconv.ParseFloat(v, 64)
			case "end":
				p.EndRPS, err = strconv.ParseFloat(v, 64)
			case "mult":
				p.Mult, err = strconv.ParseFloat(v, 64)
			case "at":
				p.At, err = strconv.ParseFloat(v, 64)
			case "width":
				p.Width, err = strconv.ParseFloat(v, 64)
			default:
				return nil, fmt.Errorf("load: unknown phase field %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("load: phase field %s: %w", k, err)
			}
		}
		for _, v := range []float64{p.RPS, p.EndRPS, p.Mult, p.At, p.Width} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("load: phase %q has a non-finite field", p.Name)
			}
		}
		if p.Duration <= 0 {
			return nil, fmt.Errorf("load: phase %q needs dur > 0", p.Name)
		}
		if p.RPS <= 0 {
			return nil, fmt.Errorf("load: phase %q needs rps > 0", p.Name)
		}
		if p.Kind == PhaseSweep && p.EndRPS <= 0 {
			return nil, fmt.Errorf("load: sweep phase %q needs end > 0", p.Name)
		}
		if p.Kind == PhaseBurst && (p.Width <= 0 || p.Mult <= 0) {
			return nil, fmt.Errorf("load: burst phase %q needs mult > 0 and width > 0", p.Name)
		}
		if n := p.peakRate() * p.Duration.Seconds(); n > maxPhaseArrivals {
			return nil, fmt.Errorf("load: phase %q may draw %.3g arrivals, more than %.0g", p.Name, n, float64(maxPhaseArrivals))
		}
		phases = append(phases, p)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("load: no phases in %q", s)
	}
	return phases, nil
}

// Mix weights the job kinds drawn for each request. Weights are relative;
// they need not sum to 1.
type Mix struct {
	Kernel float64 `json:"kernel"`
	Sweep  float64 `json:"sweep"`
	Export float64 `json:"export"`
}

// ParseMix parses "kernel=0.85,sweep=0.1,export=0.05".
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, f := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok {
			return m, fmt.Errorf("load: mix field %q is not key=value", f)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || !(w >= 0) || math.IsInf(w, 0) {
			return m, fmt.Errorf("load: bad mix weight %q", f)
		}
		switch k {
		case "kernel":
			m.Kernel = w
		case "sweep":
			m.Sweep = w
		case "export":
			m.Export = w
		default:
			return m, fmt.Errorf("load: unknown mix kind %q", k)
		}
	}
	if m.Kernel+m.Sweep+m.Export <= 0 {
		return m, fmt.Errorf("load: mix %q has no positive weight", s)
	}
	return m, nil
}

// Request is one synthesized arrival: a job spec scheduled at a fixed
// offset from trace start. Phase is the index into the trace's phases.
type Request struct {
	Index    int           `json:"i"`
	Phase    int           `json:"phase"`
	OffsetNS time.Duration `json:"offset_ns"`
	Spec     serve.JobSpec `json:"spec"`
}

// Trace is a fully materialised workload: every request pre-drawn, so a
// replay adds no randomness of its own and two replays of one trace submit
// identical job streams.
type Trace struct {
	Seed   uint64      `json:"seed"`
	Phases []PhaseSpec `json:"phases"`
	Mix    Mix         `json:"mix"`
	// ExportDir prefixes the output paths of export jobs.
	ExportDir string    `json:"export_dir,omitempty"`
	Requests  []Request `json:"-"`
}

// Duration is the total scheduled length of the trace.
func (t *Trace) Duration() time.Duration {
	var d time.Duration
	for _, p := range t.Phases {
		d += p.Duration
	}
	return d
}

// PhaseStart returns the offset at which phase i begins.
func (t *Trace) PhaseStart(i int) time.Duration {
	var d time.Duration
	for _, p := range t.Phases[:i] {
		d += p.Duration
	}
	return d
}

// kernel job shapes the synthesizer draws from: small suite graphs under
// every parallel entry of the kernels table, so a trace stresses queueing
// and cache behaviour rather than raw kernel time.
var (
	kernelGraphs   = []string{"pwtk", "hood", "bmw3_2", "ldoor"}
	kernelJobs     = parallelEntries()
	sweepWorkloads = []string{"fig1a", "fig1b", "fig2", "abl-chunk"}
)

func parallelEntries() []kernels.Entry {
	var out []kernels.Entry
	for _, e := range kernels.Table() {
		if e.Variant != kernels.Seq {
			out = append(out, e)
		}
	}
	return out
}

// drawSpec synthesizes one job spec from the mix.
func drawSpec(rng *xrand.Rand, mix Mix, exportDir string, index int) serve.JobSpec {
	total := mix.Kernel + mix.Sweep + mix.Export
	u := rng.Float64() * total
	switch {
	case u < mix.Kernel:
		graph := serve.GraphSpec{Suite: kernelGraphs[rng.Intn(len(kernelGraphs))], Scale: 6}
		e := kernelJobs[rng.Intn(len(kernelJobs))]
		spec := serve.JobSpec{Kind: e.Kind, Graph: graph, Variant: e.Variant, Chunk: 64}
		if e.Kind == kernels.Irregular {
			spec.Iters = 3
		}
		return spec
	case u < mix.Kernel+mix.Sweep:
		return serve.JobSpec{Kind: serve.KindSweep,
			Experiments: []string{sweepWorkloads[rng.Intn(len(sweepWorkloads))]},
			SweepScale:  2}
	default:
		return serve.JobSpec{Kind: serve.KindExport,
			Graph:  serve.GraphSpec{Suite: kernelGraphs[rng.Intn(len(kernelGraphs))], Scale: 6},
			Output: fmt.Sprintf("%s/export-%06d.bin", exportDir, index),
		}
	}
}

// Synthesize materialises the whole trace from the seed: an open-loop
// arrival process per phase (exponential inter-arrival times against the
// phase's instantaneous rate) over the weighted job mix. Same seed, same
// phases, same mix -> byte-identical trace.
func Synthesize(seed uint64, phases []PhaseSpec, mix Mix, exportDir string) *Trace {
	rng := xrand.New(seed)
	tr := &Trace{Seed: seed, Phases: phases, Mix: mix, ExportDir: exportDir}
	var base time.Duration
	for pi, p := range phases {
		t := time.Duration(0)
		for {
			rate := p.rateAt(t)
			if rate <= 0 {
				break
			}
			// Exponential inter-arrival against the current instantaneous
			// rate; 1-u keeps the argument of Log strictly positive. A gap
			// past the phase end breaks before it is converted, so a very
			// low rate cannot overflow the Duration.
			gap := -math.Log(1-rng.Float64()) / rate * float64(time.Second)
			if gap >= float64(p.Duration-t) {
				break
			}
			t += time.Duration(gap)
			tr.Requests = append(tr.Requests, Request{
				Index:    len(tr.Requests),
				Phase:    pi,
				OffsetNS: base + t,
				Spec:     drawSpec(rng, mix, exportDir, len(tr.Requests)),
			})
		}
		base += p.Duration
	}
	return tr
}

// WriteLog writes the trace as JSONL — one request per line, preceded by a
// header line carrying seed, phases and mix. The encoding is canonical
// (fixed field order, no timestamps), so identical traces produce
// byte-identical logs; CI diffs two runs of the same seed to pin
// synthesizer determinism.
func (t *Trace) WriteLog(w io.Writer) error {
	enc := json.NewEncoder(w)
	header := struct {
		Type     string      `json:"type"`
		Seed     uint64      `json:"seed"`
		Phases   []PhaseSpec `json:"phases"`
		Mix      Mix         `json:"mix"`
		Requests int         `json:"requests"`
	}{"trace", t.Seed, t.Phases, t.Mix, len(t.Requests)}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for i := range t.Requests {
		if err := enc.Encode(&t.Requests[i]); err != nil {
			return err
		}
	}
	return nil
}
