package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteSVG(t *testing.T) {
	s := sharedSuite(t)
	e := byID(t, s, "fig1a")
	var buf bytes.Buffer
	if err := WriteSVG(&buf, e); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Error("not a complete SVG document")
	}
	// One polyline per series plus the legend swatches.
	if got := strings.Count(out, "<polyline"); got != len(e.Series) {
		t.Errorf("%d polylines for %d series", got, len(e.Series))
	}
	for _, series := range e.Series {
		if !strings.Contains(out, series.Label) {
			t.Errorf("legend missing %q", series.Label)
		}
	}
}

func TestWriteSVGEscapesLabels(t *testing.T) {
	e := &Experiment{
		ID:    "x",
		Title: `a <b> & "c"`,
		Series: []Series{{
			Label: "s<&>", Threads: []int{1, 2}, Values: []float64{1, 2},
		}},
	}
	var buf bytes.Buffer
	if err := WriteSVG(&buf, e); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "<b>") || strings.Contains(out, "s<&>") {
		t.Error("labels not XML-escaped")
	}
}

func TestWriteSVGRejectsTables(t *testing.T) {
	e := &Experiment{ID: "table1", Rows: []TableRow{{Name: "x"}}}
	if err := WriteSVG(&bytes.Buffer{}, e); err == nil {
		t.Error("table experiment accepted for plotting")
	}
	empty := &Experiment{ID: "e", Series: []Series{{Label: "z", Threads: []int{1}, Values: []float64{0}}}}
	if err := WriteSVG(&bytes.Buffer{}, empty); err == nil {
		t.Error("all-zero data accepted")
	}
}

func TestNiceCeil(t *testing.T) {
	cases := map[float64]float64{
		0:    1,
		0.7:  0.8,
		1.2:  1.5,
		7:    8,
		9.5:  10,
		72:   80,
		153:  200,
		1000: 1000,
	}
	for in, want := range cases {
		if got := niceCeil(in); got != want {
			t.Errorf("niceCeil(%v) = %v, want %v", in, got, want)
		}
	}
}
