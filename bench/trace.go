package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark around its calls into each layer; the program under test is not
// instrumented by this change.
type span struct {
	id, parent int // parent 0 = root
	layer      string
	name       string
	lane       int // Chrome trace tid: 0 the driving goroutine, 1.. clients
	start, end time.Duration
	args       map[string]any
}

// tracer keeps the spans of one run in memory and writes them out as Chrome
// trace-event JSON when the run ends. Every method is a no-op on a nil
// tracer, which is how the untraced run pays nothing.
type tracer struct {
	mu    sync.Mutex
	runID string
	t0    time.Time
	spans []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

// begin opens a span on the driving goroutine's lane and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, layer: layer, name: name, start: now, end: -1})
	return len(t.spans)
}

// end closes a span opened by begin, attaching args (may be nil).
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
	t.spans[id-1].args = args
}

// add records a finished span with explicit bounds, for intervals measured
// elsewhere (client-side job timing, server-reported sub-spans, recorder
// phase samples).
func (t *tracer) add(parent int, layer, name string, lane int, start time.Time, d time.Duration, args map[string]any) int {
	if t == nil {
		return 0
	}
	s := start.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, layer: layer, name: name, lane: lane, start: s, end: s + d, args: args})
	return len(t.spans)
}

// write stores the spans as <dir>/<run id>.trace.json, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing, and returns the path. Each event
// carries its span id, its parent's id and the run id shared by all spans.
func (t *tracer) write(dir string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, t.runID+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":%q}}`, "bench "+t.runID)
	for i := range t.spans {
		s := &t.spans[i]
		if s.end < 0 {
			continue // never closed: the run failed inside it
		}
		args := map[string]any{"id": s.id, "parent": s.parent, "run": t.runID}
		for k, v := range s.args {
			args[k] = v
		}
		ab, err := json.Marshal(args)
		if err != nil {
			f.Close()
			return "", fmt.Errorf("trace args of %s: %w", s.name, err)
		}
		fmt.Fprintf(bw, ",\n"+`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":%s}`,
			s.name, s.layer, us(s.start), us(s.end-s.start), s.lane, ab)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
