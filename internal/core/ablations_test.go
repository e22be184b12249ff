package core

import (
	"testing"

	"micgraph/internal/mic"
)

func TestAblBlockSizeUnimodal(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "abl-blocksize")
	if len(e.Series) != 3 {
		t.Fatalf("%d series", len(e.Series))
	}
	for _, series := range e.Series {
		// Huge blocks must always lose badly (no parallelism inside a
		// level), the §IV-C trade-off.
		last := series.Values[len(series.Values)-1]
		_, peak := series.Peak()
		if last > peak/1.5 {
			t.Errorf("%s: block 256 speedup %v too close to peak %v", series.Label, last, peak)
		}
	}
}

func TestAblChunkSizeTradeoff(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "abl-chunk")
	for _, series := range e.Series {
		// Very large chunks destroy load balance at high thread counts.
		if series.Label == "121 threads" {
			at1000 := series.Values[len(series.Values)-1]
			_, peak := series.Peak()
			if at1000 > 0.8*peak {
				t.Errorf("chunk 1000 speedup %v not clearly below peak %v", at1000, peak)
			}
		}
	}
}

func TestAblSMTStaircase(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "abl-smt")
	if len(e.Series) != 4 {
		t.Fatalf("%d series, want 4 SMT widths", len(e.Series))
	}
	oneWay := seriesByLabel(t, e, "1-way SMT")
	fourWay := seriesByLabel(t, e, "4-way SMT")
	// Without SMT the memory-bound kernel cannot scale past the core count.
	if oneWay.At(121) > 32 {
		t.Errorf("1-way SMT speedup %v exceeds the 31 cores", oneWay.At(121))
	}
	// With 4-way SMT it must go far beyond — the paper's headline.
	if fourWay.At(121) < 2*oneWay.At(121) {
		t.Errorf("4-way SMT speedup %v not well above 1-way %v", fourWay.At(121), oneWay.At(121))
	}
	// Monotone in SMT width at full subscription.
	prev := 0.0
	for _, series := range e.Series {
		v := series.At(121)
		if v < prev-1e-9 {
			t.Errorf("speedup decreased with more SMT ways: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestAblCacheBonusSuperlinearity(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "abl-bonus")
	on := seriesByLabel(t, e, "bonus on")
	off := seriesByLabel(t, e, "bonus off")
	if on.At(121) <= off.At(121) {
		t.Errorf("bonus on (%v) not above bonus off (%v)", on.At(121), off.At(121))
	}
	if off.At(121) > 121.5 {
		t.Errorf("without the bonus, speedup %v must not exceed the thread count", off.At(121))
	}
}

func TestAblOrderingRCMRestoresLocality(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "abl-ordering")
	natural := seriesByLabel(t, e, "natural")
	shuffled := seriesByLabel(t, e, "shuffled")
	rcm := seriesByLabel(t, e, "shuffled+RCM")
	// 1-thread relative times: shuffled slower than natural; RCM close to
	// natural again.
	if shuffled.At(1) <= natural.At(1) {
		t.Errorf("shuffled serial time %v not above natural %v", shuffled.At(1), natural.At(1))
	}
	if rcm.At(1) > (natural.At(1)+shuffled.At(1))/2 {
		t.Errorf("RCM serial time %v did not recover locality (natural %v, shuffled %v)",
			rcm.At(1), natural.At(1), shuffled.At(1))
	}
}

func TestAblModelVsSim(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "abl-model")
	model := seriesByLabel(t, e, "analytical model")
	stripped := seriesByLabel(t, e, "simulator, overheads off")
	full := seriesByLabel(t, e, "simulator, full")
	// The stripped simulator must sit between the full simulator and the
	// model at high thread counts (it removes overheads but keeps real
	// per-vertex cost variation).
	for _, th := range []int{61, 121} {
		if stripped.At(th) < full.At(th)-1e-9 {
			t.Errorf("at %d threads stripped sim %v below full sim %v", th, stripped.At(th), full.At(th))
		}
		if stripped.At(th) > model.At(th)*1.15 {
			t.Errorf("at %d threads stripped sim %v well above the model %v", th, stripped.At(th), model.At(th))
		}
	}
}

func TestAblationsCollection(t *testing.T) {
	s := sharedSuite(t)
	knf, host := mic.KNF(), mic.HostXeon()
	exps := RunMany(IDs(GroupAblation), s, knf, host)
	if len(exps) != 7 {
		t.Fatalf("%d ablations, want 7", len(exps))
	}
	for _, e := range exps {
		if len(e.Series) == 0 || len(e.Errors) != 0 {
			t.Errorf("%s: %d series, errors %v", e.ID, len(e.Series), e.Errors)
		}
		got, err := ByID(e.ID, s, knf, host)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s): %v", e.ID, err)
		}
	}
}

func TestExtraRMAT(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "extra-rmat")
	if len(e.Series) != 3 {
		t.Fatalf("%d series", len(e.Series))
	}
	coloring := seriesByLabel(t, e, "coloring OpenMP-dynamic")
	bfsImpl := seriesByLabel(t, e, "BFS Block-relaxed")
	model := seriesByLabel(t, e, "BFS model")
	// Power-law hubs cap both kernels far below the FEM meshes: a single
	// indivisible hub vertex bounds every phase (the chunking assumptions
	// of the paper's kernels break on this graph class).
	if _, peak := coloring.Peak(); peak > 40 {
		t.Errorf("RMAT coloring peak %v suspiciously high; hub imbalance missing", peak)
	}
	// The analytical model ignores per-vertex cost variation, so it vastly
	// overestimates what the implementation can do here.
	if model.At(121) < 2*bfsImpl.At(121) {
		t.Errorf("model %v not far above hub-bound impl %v", model.At(121), bfsImpl.At(121))
	}
}

func TestExtraKNCScalesPastKNF(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "extra-knc")
	knc := seriesByLabel(t, e, "OpenMP-dynamic on KNC")
	knf := seriesByLabel(t, e, "OpenMP-dynamic on KNF")
	// KNF saturates at its 124 hardware threads; the projected KNC keeps
	// scaling on the memory-bound kernel.
	if knc.At(240) <= knf.At(240) {
		t.Errorf("KNC at 240 threads (%v) not above saturated KNF (%v)", knc.At(240), knf.At(240))
	}
	if knc.At(240) <= knc.At(120) {
		t.Errorf("KNC did not scale past 120 threads: %v vs %v", knc.At(240), knc.At(120))
	}
	// KNF is clamped to its 124 hardware threads: flat beyond them.
	if knf.At(160) != knf.At(240) {
		t.Errorf("KNF not saturated beyond its hardware threads: %v at 160 vs %v at 240",
			knf.At(160), knf.At(240))
	}
}
