package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"micgraph/internal/serve"
)

// ForwardedHeader marks a request that was already routed by a cluster
// entry node. A node receiving it serves locally without consulting the
// ring again — the one-hop rule that makes routing loops impossible even
// when two nodes' rings momentarily disagree about membership.
const ForwardedHeader = "X-Micserved-Forwarded"

// forwardError writes the 502 a client sees when the shard owning its
// request cannot be reached, with the owning shard named so the failure is
// attributable.
func forwardError(w http.ResponseWriter, owner string, err error) {
	serve.WriteJSON(w, http.StatusBadGateway, serve.ErrorBody{
		Error: fmt.Sprintf("cluster: shard %s unreachable: %v", owner, err),
	})
}

// forward proxies r, with body (nil for GET/DELETE), to the same path on
// shard owner and writes the answer back: status, content type,
// Retry-After and request-ID header. A 200 JSONL answer (a result stream)
// is relayed line by line; any other body is copied as is, since a 4xx or
// 5xx is the peer's answer. Returns an error only when the peer could not
// be reached or did not answer, before anything is written to w.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte) error {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, n.urls[owner]+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for _, k := range []string{"Content-Type", serve.RequestIDHeader} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Retry-After", serve.RequestIDHeader} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if resp.StatusCode == http.StatusOK && resp.Header.Get("Content-Type") == "application/x-ndjson" {
		relayResult(owner, resp.Body, w)
		return nil
	}
	io.Copy(w, resp.Body)
	return nil
}

// relayResult streams a remote shard's JSONL result body through to w,
// flushing per line so a client following a running job sees lines as the
// shard produces them. If the upstream connection dies mid-stream — the
// shard was killed — a terminal error line is appended before returning,
// so a dead shard's job visibly fails instead of its stream silently
// truncating.
func relayResult(owner string, upstream io.Reader, w http.ResponseWriter) {
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	br := bufio.NewReader(upstream)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			w.Write(line)
			flush()
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			terminalErrorLine(w, owner, err)
			flush()
			return
		}
	}
}

// terminalErrorLine writes the JSONL error record that ends a relayed
// stream whose upstream shard became unreachable. It matches the shape of
// the serve package's own terminal error lines, so stream consumers need
// no cluster-specific handling.
func terminalErrorLine(w io.Writer, owner string, err error) {
	json.NewEncoder(w).Encode(serve.ErrorBody{
		Error: fmt.Sprintf("cluster: shard %s unreachable: %v", owner, err),
		Type:  "error",
	})
}
