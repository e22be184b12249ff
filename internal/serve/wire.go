package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"micgraph/internal/telemetry"
)

// MaxSubmitBody bounds a POST /jobs body (1 MiB): specs are tiny, and a
// longer body is refused with 413 rather than read on.
const MaxSubmitBody = 1 << 20

// Health is the body of GET /healthz, fields in sorted key order.
type Health struct {
	Queue         QueueStats `json:"queue"`
	Status        string     `json:"status"` // "ok" or "draining"
	UptimeSeconds float64    `json:"uptime_seconds"`
}

// Metrics is the body of GET /metricsz, fields in sorted key order.
type Metrics struct {
	Cache    CacheStats         `json:"cache"`
	Counters telemetry.Snapshot `json:"counters"`
	// Jobs counts the retained jobs by status; JobsTotal never forgets.
	Jobs      map[string]int                         `json:"jobs"`
	JobsTotal JobTotals                              `json:"jobs_total"`
	Latency   map[string]telemetry.HistogramSnapshot `json:"latency"`
	Queue     QueueStats                             `json:"queue"`
	// Shard is the server's cluster name, absent on a single-node daemon.
	Shard         string  `json:"shard,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ErrorBody is the daemon's one error shape: the body of every HTTP error
// answer, and, with Type "error", the terminal line of a result stream
// that did not end in success.
type ErrorBody struct {
	Error string `json:"error"`
	Type  string `json:"type,omitempty"`
}

// WriteJSON answers with status and v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorBody{Error: err.Error()})
}

// GetJSON GETs url and decodes its JSON body into v. An answer other than
// 200 is an error that names its status.
func GetJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
