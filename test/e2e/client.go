package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"micgraph/internal/serve"
)

// client is the oracle's HTTP actor against one daemon incarnation.
type client struct {
	t    tb
	base string
	hc   *http.Client
}

func newClient(t tb, d *daemon) *client {
	return &client{t: t, base: d.url(), hc: &http.Client{Timeout: 15 * time.Second}}
}

// submitResult is one submit attempt's observable outcome.
type submitResult struct {
	code       int
	view       serve.JobView
	retryAfter string
	body       string
}

// submit POSTs a raw JSON body to /jobs.
func (c *client) submit(body string) (submitResult, error) {
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return submitResult{}, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	res := submitResult{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: string(raw)}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &res.view); err != nil {
			return res, fmt.Errorf("202 with undecodable body %q: %w", raw, err)
		}
	}
	return res, nil
}

// jobStatus GETs /jobs/{id}.
func (c *client) jobStatus(id string) (int, serve.JobView, error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id)
	if err != nil {
		return 0, serve.JobView{}, err
	}
	defer resp.Body.Close()
	var v serve.JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return resp.StatusCode, v, err
		}
	}
	return resp.StatusCode, v, nil
}

// list GETs /jobs and returns the retained job views.
func (c *client) list() ([]serve.JobView, error) {
	resp, err := c.hc.Get(c.base + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var views []serve.JobView
	return views, json.NewDecoder(resp.Body).Decode(&views)
}

// cancel DELETEs /jobs/{id}.
func (c *client) cancel(id string) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/jobs/"+id, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// metrics GETs and decodes /metricsz.
func (c *client) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := c.hc.Get(c.base + "/metricsz")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// result GETs a terminal job's full JSONL payload in one shot.
func (c *client) result(id string) (string, error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/result")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// follower streams one job's /result from submission until the stream
// closes. A follower that never finishes is a stuck job — the sharpest
// form of the no-stuck-jobs invariant, checked at drain time.
type follower struct {
	id   string
	done chan struct{}

	mu      sync.Mutex
	payload []byte
	err     error
}

// follow starts streaming id's result. The request deliberately has no
// client timeout: the stream is supposed to stay open exactly as long as
// the job is non-terminal, and the *daemon* closing it is the invariant.
func (c *client) follow(id string) *follower {
	f := &follower{id: id, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		hc := &http.Client{} // no timeout: bounded by the job's own lifecycle
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet,
			c.base+"/jobs/"+id+"/result", nil)
		if err != nil {
			f.fail(err)
			return
		}
		resp, err := hc.Do(req)
		if err != nil {
			f.fail(err)
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		f.mu.Lock()
		f.payload = raw
		f.err = err
		f.mu.Unlock()
	}()
	return f
}

func (f *follower) fail(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

// wait blocks until the stream closed or the deadline passed; it reports
// whether the stream completed.
func (f *follower) wait(within time.Duration) bool {
	select {
	case <-f.done:
		return true
	case <-time.After(within):
		return false
	}
}

// lines returns the JSONL payload split into decoded objects, failing the
// run on any non-JSON line (a malformed stream is itself a violation).
func (f *follower) lines(t tb) []map[string]any {
	t.Helper()
	f.mu.Lock()
	raw, err := string(f.payload), f.err
	f.mu.Unlock()
	if err != nil {
		t.Fatalf("INVARIANT stream-clean: job %s result stream broke: %v", f.id, err)
	}
	var out []map[string]any
	for i, line := range strings.Split(strings.TrimRight(raw, "\n"), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("INVARIANT stream-jsonl: job %s line %d is not JSON: %v\n%s", f.id, i+1, err, line)
		}
		out = append(out, m)
	}
	return out
}
