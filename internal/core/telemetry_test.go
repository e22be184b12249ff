package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"micgraph/internal/mic"
)

// TestSpeedupCurvesCellTelemetry: with Harness.Telemetry on, every sweep
// cell yields a CellTelemetry record with populated simulator stats; with it
// off (or no harness), none do.
func TestSpeedupCurvesCellTelemetry(t *testing.T) {
	threads := []int{1, 11}
	traceFor := func(gi, ci, tt int) *mic.Trace { return testTrace(300) }

	h := &Harness{Telemetry: true}
	e, _ := book(h, "test", testSweep(2, threads), traceFor)
	series, errs, cells := e.Series, e.Errors, e.Cells
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := len(testConfigs) * 2 * len(threads)
	if len(cells) != want {
		t.Fatalf("%d telemetry cells, want %d (configs × graphs × threads)", len(cells), want)
	}
	bySeriesGraphThreads := map[[2]string]bool{}
	for _, c := range cells {
		if c.SimTime <= 0 {
			t.Errorf("cell %+v has non-positive sim time", c)
		}
		if c.Stats.Phases == 0 || c.Stats.Chunks == 0 {
			t.Errorf("cell %+v has empty simulator stats", c)
		}
		if c.Attempts != 1 {
			t.Errorf("cell %+v attempts = %d, want 1 for a clean sweep", c, c.Attempts)
		}
		bySeriesGraphThreads[[2]string{c.Series, ""}] = true
	}
	for _, s := range series {
		if !bySeriesGraphThreads[[2]string{s.Label, ""}] {
			t.Errorf("no telemetry cells for series %q", s.Label)
		}
	}

	off, _ := book(nil, "test", testSweep(2, threads), traceFor)
	if none := off.Cells; len(none) != 0 {
		t.Errorf("telemetry off but %d cells recorded", len(none))
	}
}

// TestStampCells: a sweep books its telemetry records and its annotations
// under its experiment's ID.
func TestStampCells(t *testing.T) {
	traceFor := func(gi, _, tt int) *mic.Trace {
		if gi == 0 && tt == 11 {
			panic(errors.New("boom"))
		}
		return testTrace(300)
	}
	e, _ := book(&Harness{Telemetry: true}, "fig2", testSweep(2, []int{1, 11}), traceFor)
	if len(e.Cells) == 0 || len(e.Errors) == 0 {
		t.Fatalf("%d cells, %d annotations; want some of each", len(e.Cells), len(e.Errors))
	}
	for _, c := range e.Cells {
		if c.Experiment != "fig2" {
			t.Errorf("cell %+v not stamped", c)
		}
	}
	for _, ce := range e.Errors {
		if ce.Experiment != "fig2" {
			t.Errorf("annotation %+v not stamped", ce)
		}
	}
}

// TestWriteJSON: the JSON report round-trips series, notes, flattened error
// strings and telemetry cells.
func TestWriteJSON(t *testing.T) {
	exp := &Experiment{
		ID:    "fig2",
		Title: "test experiment",
		Series: []Series{
			{Label: "OpenMP", Threads: []int{1, 2}, Values: []float64{1, 1.9}},
		},
		Notes:  "a note",
		Errors: []CellError{{Series: "OpenMP", Graph: 1, Threads: 2, Attempts: 1, Err: errors.New("boom")}},
		Cells: []CellTelemetry{
			{Experiment: "fig2", Series: "OpenMP", Graph: 0, Threads: 1, SimTime: 10,
				Stats: mic.SimStats{Phases: 1, Chunks: 3}},
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Experiment{exp}); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		ID     string `json:"id"`
		Series []struct {
			Label  string    `json:"label"`
			Values []float64 `json:"values"`
		} `json:"series"`
		Errors []string        `json:"errors"`
		Cells  []CellTelemetry `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 1 || got[0].ID != "fig2" {
		t.Fatalf("round-trip = %+v", got)
	}
	if len(got[0].Series) != 1 || got[0].Series[0].Values[1] != 1.9 {
		t.Errorf("series lost: %+v", got[0].Series)
	}
	if len(got[0].Errors) != 1 || !strings.Contains(got[0].Errors[0], "OpenMP") {
		t.Errorf("errors lost or unformatted: %v", got[0].Errors)
	}
	if len(got[0].Cells) != 1 || got[0].Cells[0].Stats.Chunks != 3 {
		t.Errorf("cells lost: %+v", got[0].Cells)
	}
}
