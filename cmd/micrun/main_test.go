package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micgraph/internal/graphio"
	"micgraph/internal/kernels"
	"micgraph/internal/sched"
)

// micrun runs the tool in-process and returns its exit code and streams.
func micrun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// onHood are the graph and worker flags every test here uses: with one
// worker every result line is deterministic.
func onHood(args ...string) []string {
	return append([]string{"-graph", "hood", "-scale", "32", "-workers", "1"}, args...)
}

// TestEveryTableEntry drives the tool over the whole kernels table and
// checks that what it prints is the result line of a direct Entry.Run with
// the same parameters — the line the daemon streams for the same job.
func TestEveryTableEntry(t *testing.T) {
	g, err := graphio.Load("", "hood", 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := kernels.NewRuntime(1)
	defer rt.Close()
	p := kernels.Params{Source: int32(g.NumVertices() / 2), Chunk: 100, Iters: 5,
		Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner}

	for _, e := range kernels.Table() {
		name := e.Kind + "/" + e.Variant
		code, stdout, stderr := micrun(onHood("-kind", e.Kind, "-variant", e.Variant)...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", name, code, stderr)
		}
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "time: ") || !strings.HasSuffix(lines[1], "(valid)") {
			t.Fatalf("%s: stdout is not a result line and a valid time line:\n%s", name, stdout)
		}
		out, err := e.Run(context.Background(), rt, g, p)
		if err != nil {
			t.Fatalf("%s: direct run: %v", name, err)
		}
		want, err := json.Marshal(out.Line(e, g.String(), p))
		if err != nil {
			t.Fatal(err)
		}
		if lines[0] != string(want) {
			t.Errorf("%s: printed line differs from the direct run:\n  got %s\n want %s", name, lines[0], want)
		}
	}

	// No -variant selects the kind's default.
	_, stdout, _ := micrun(onHood("-kind", kernels.Components)...)
	if want := `"variant":"` + kernels.Default(kernels.Components) + `"`; !strings.Contains(stdout, want) {
		t.Errorf("default components run printed %q, want it to carry %s", stdout, want)
	}
}

func TestExitCodes(t *testing.T) {
	// A bogus variant is a usage error naming the table, reported before
	// the graph is looked at: the graph named here does not exist either.
	code, stdout, stderr := micrun("-kind", kernels.BFS, "-variant", "bogus", "-graph", "no-such-graph")
	if code != 2 || stdout != "" {
		t.Errorf("bogus variant: exit %d, stdout %q; want exit 2 and nothing printed", code, stdout)
	}
	for _, e := range kernels.Table() {
		if !strings.Contains(stderr, " "+e.Variant) || !strings.Contains(stderr, e.Kind+":") {
			t.Errorf("bogus variant: stderr does not name %s/%s:\n%s", e.Kind, e.Variant, stderr)
		}
	}
	if strings.Contains(stderr, "no-such-graph") {
		t.Errorf("bogus variant: the graph was loaded first:\n%s", stderr)
	}
	if code, _, _ := micrun("-kind", "bogus"); code != 2 {
		t.Errorf("bogus kind: exit %d, want 2", code)
	}
	if code, _, _ := micrun(onHood("-policy", "bogus")...); code != 2 {
		t.Errorf("bogus policy: exit %d, want 2", code)
	}
	if code, _, _ := micrun("-graph", "hood", "-scale", "32", "-workers", "0"); code != 2 {
		t.Errorf("-workers 0: exit %d, want 2", code)
	}
	if code, _, _ := micrun(onHood("-kind", kernels.Coloring, "-model")...); code != 2 {
		t.Errorf("-model on coloring: exit %d, want 2", code)
	}

	if code, _, stderr := micrun("-graph", "no-such-graph"); code != 1 {
		t.Errorf("unknown graph: exit %d, want 1 (stderr %s)", code, stderr)
	}
	code, stdout, stderr = micrun(onHood("-kind", kernels.Coloring, "-timeout", "1ns")...)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "aborted") {
		t.Errorf("-timeout 1ns: exit %d, stdout %q, stderr %q; want exit 1 and an abort message", code, stdout, stderr)
	}
}

func TestDistance2(t *testing.T) {
	for _, e := range kernels.Table() {
		code, stdout, stderr := micrun(onHood("-kind", e.Kind, "-variant", e.Variant, "-d2")...)
		allowed := e.Kind == kernels.Coloring && (e.Variant == kernels.Seq || e.Default)
		switch {
		case allowed && (code != 0 || !strings.Contains(stdout, "(valid)")):
			t.Errorf("%s/%s -d2: exit %d, stdout %q, stderr %q; want a valid run", e.Kind, e.Variant, code, stdout, stderr)
		case !allowed && code != 2:
			t.Errorf("%s/%s -d2: exit %d, want 2", e.Kind, e.Variant, code)
		}
	}
	// The team form polls its context like any table row.
	code, stdout, stderr := micrun(onHood("-kind", kernels.Coloring, "-d2", "-timeout", "1ns")...)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "aborted") {
		t.Errorf("-d2 -timeout 1ns: exit %d, stdout %q, stderr %q; want exit 1 and an abort message", code, stdout, stderr)
	}
}

// TestMetricsOut checks the -metrics-out trace of every kind's default
// entry: one run header naming the entry, at least one phase, one counter
// snapshot — which, every default being Team-carried, says per worker how
// long after each loop's publication it arrived and how long it stayed.
func TestMetricsOut(t *testing.T) {
	for _, kind := range []string{kernels.BFS, kernels.Coloring, kernels.Components, kernels.Irregular} {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if code, _, stderr := micrun(onHood("-kind", kind, "-metrics-out", path)...); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", kind, code, stderr)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		records := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var rec struct {
				Record, Kind, Variant string
				Workers               int
				Totals                map[string]int64
				PerWorker             []map[string]int64 `json:"per_worker"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: bad metrics line %q: %v", kind, line, err)
			}
			records[rec.Record]++
			if rec.Record == "counters" {
				if rec.Totals["chunks_claimed"] <= 0 || rec.Totals["loop_start_lag_ns"] <= 0 || rec.Totals["loop_busy_ns"] <= 0 {
					t.Errorf("%s: counter totals %v, want chunks and both loop tallies above zero", kind, rec.Totals)
				}
				if len(rec.PerWorker) != rec.Workers {
					t.Errorf("%s: %d per-worker counter sets for %d workers", kind, len(rec.PerWorker), rec.Workers)
				}
				for w, c := range rec.PerWorker {
					if _, ok := c["loop_start_lag_ns"]; !ok || c["loop_busy_ns"] <= 0 {
						t.Errorf("%s: worker %d counters %v, want a start lag and a busy time", kind, w, c)
					}
				}
			}
			if rec.Record == "run" && (rec.Kind != kind || rec.Variant != kernels.Default(kind)) {
				t.Errorf("%s: run header names %s/%s", kind, rec.Kind, rec.Variant)
			}
		}
		if records["run"] != 1 || records["phase"] < 1 || records["counters"] != 1 || len(records) != 3 {
			t.Errorf("%s: metrics records = %v, want 1 run, >=1 phase, 1 counters", kind, records)
		}
	}
}

// TestOutRoundTrip writes hood@32 with -out in every format and checks that
// each table entry prints, on the written file, the line it prints on the
// generated graph.
func TestOutRoundTrip(t *testing.T) {
	// samePrints writes the graph src names to path with -out, then checks
	// that every table entry prints the same result line on path as on src.
	samePrints := func(src []string, path string) {
		t.Helper()
		if code, _, stderr := micrun(append(src, "-out", path)...); code != 0 {
			t.Fatalf("-out %s: exit %d, stderr: %s", path, code, stderr)
		}
		for _, e := range kernels.Table() {
			entry := []string{"-workers", "1", "-kind", e.Kind, "-variant", e.Variant}
			_, want, _ := micrun(append(src, entry...)...)
			code, got, stderr := micrun(append([]string{"-file", path}, entry...)...)
			if code != 0 {
				t.Fatalf("%s %s/%s: exit %d, stderr: %s", path, e.Kind, e.Variant, code, stderr)
			}
			if got, want := resultLine(got), resultLine(want); got != want {
				t.Errorf("%s %s/%s: the written file prints\n  %s\nwant\n  %s", path, e.Kind, e.Variant, got, want)
			}
		}
	}
	dir := t.TempDir()
	for _, ext := range []string{".mtx", ".bin", ".el"} {
		samePrints([]string{"-graph", "hood", "-scale", "32"}, filepath.Join(dir, "hood"+ext))
	}
	// Six rows, the last three isolated: the edge list must keep them.
	mtx := filepath.Join(dir, "t.mtx")
	if err := os.WriteFile(mtx, []byte("%%MatrixMarket matrix coordinate pattern symmetric\n6 6 2\n2 1\n3 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	samePrints([]string{"-file", mtx}, filepath.Join(dir, "t.el"))

	// A write that cannot happen stops the run before it starts.
	missing := t.TempDir()
	code, stdout, stderr := micrun(onHood("-out", filepath.Join(missing, "no-such-dir", "g.bin"))...)
	if code != 1 || stdout != "" || stderr == "" {
		t.Errorf("-out into a missing directory: exit %d, stdout %q, stderr %q; want exit 1 and no result", code, stdout, stderr)
	}
	if left, err := os.ReadDir(missing); err != nil || len(left) != 0 {
		t.Errorf("-out into a missing directory left %v (%v) behind", left, err)
	}
}

// resultLine is the first line of micrun's output, the result line.
func resultLine(stdout string) string {
	line, _, _ := strings.Cut(stdout, "\n")
	return line
}
