package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"

	"bright/internal/sim"
)

// maxProxyBody bounds how much of a backend response the coordinator
// will buffer (reports are tens of KB; snapshots scale with the cache
// cap, still well under this).
const maxProxyBody = 64 << 20

// backendClient is the coordinator's HTTP client for one shard. Every
// method takes the caller's context so request cancellation propagates
// through the coordinator down to the shard's solvers.
type backendClient struct {
	addr string // host:port
	hc   *http.Client
}

// proxyResponse is a fully buffered backend response, ready to be
// replayed to the client or decoded.
type proxyResponse struct {
	status int
	header http.Header
	body   []byte
}

// passthroughHeaders are the backend response headers the coordinator
// replays to the client verbatim.
var passthroughHeaders = []string{"Content-Type", "Retry-After"}

// writeTo replays the buffered response on w.
func (p *proxyResponse) writeTo(w http.ResponseWriter, r *http.Request) {
	for _, h := range passthroughHeaders {
		if v := p.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(p.status)
	if _, err := w.Write(p.body); err != nil {
		log.Printf("cluster: writing %d-byte proxied response to %s %s: %v",
			len(p.body), r.Method, r.URL.Path, err)
	}
}

// closeBody drains and closes a response body so the transport can
// reuse the connection. Failures are log-only: the response itself has
// already been consumed or abandoned.
func closeBody(resp *http.Response) {
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		log.Printf("cluster: draining response body: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		log.Printf("cluster: closing response body: %v", err)
	}
}

// roundTrip performs one buffered HTTP exchange with the shard. A
// non-nil error means the shard was unreachable or the exchange died
// mid-flight (candidate for failover); HTTP-level failures come back as
// a proxyResponse with the shard's status.
func (b *backendClient) roundTrip(ctx context.Context, method, path string, body []byte) (*proxyResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+b.addr+path, rd)
	if err != nil {
		return nil, fmt.Errorf("cluster: building %s %s request for %s: %w", method, path, b.addr, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s %s on %s: %w", method, path, b.addr, err)
	}
	defer closeBody(resp)
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading %s %s response from %s: %w", method, path, b.addr, err)
	}
	return &proxyResponse{status: resp.StatusCode, header: resp.Header.Clone(), body: buf}, nil
}

// getInto decodes a GET response into out, treating non-2xx statuses as
// errors.
func (b *backendClient) getInto(ctx context.Context, path string, out any) error {
	pr, err := b.roundTrip(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if pr.status/100 != 2 {
		return fmt.Errorf("cluster: GET %s on %s: status %d: %s", path, b.addr, pr.status, truncate(pr.body))
	}
	if err := json.Unmarshal(pr.body, out); err != nil {
		return fmt.Errorf("cluster: decoding GET %s response from %s: %w", path, b.addr, err)
	}
	return nil
}

// health probes the shard's lock-free liveness endpoint.
func (b *backendClient) health(ctx context.Context) error {
	var status struct {
		Status string `json:"status"`
	}
	if err := b.getInto(ctx, "/healthz", &status); err != nil {
		return err
	}
	if status.Status != "ok" {
		return fmt.Errorf("cluster: %s reports health %q", b.addr, status.Status)
	}
	return nil
}

// stats fetches the shard's serving stats.
func (b *backendClient) stats(ctx context.Context) (sim.Stats, error) {
	var st sim.Stats
	err := b.getInto(ctx, "/v1/stats", &st)
	return st, err
}

// getSnapshot pulls the shard's cache snapshot.
func (b *backendClient) getSnapshot(ctx context.Context) (sim.CacheSnapshot, error) {
	var snap sim.CacheSnapshot
	err := b.getInto(ctx, "/v1/cache/snapshot", &snap)
	return snap, err
}

// putSnapshot pushes a previously captured snapshot into the shard,
// returning how many entries it accepted.
func (b *backendClient) putSnapshot(ctx context.Context, snap sim.CacheSnapshot) (restored int, err error) {
	body, err := json.Marshal(snap)
	if err != nil {
		return 0, fmt.Errorf("cluster: encoding snapshot for %s: %w", b.addr, err)
	}
	pr, err := b.roundTrip(ctx, http.MethodPut, "/v1/cache/snapshot", body)
	if err != nil {
		return 0, err
	}
	if pr.status/100 != 2 {
		return 0, fmt.Errorf("cluster: PUT /v1/cache/snapshot on %s: status %d: %s", b.addr, pr.status, truncate(pr.body))
	}
	var out struct {
		Restored int `json:"restored"`
	}
	if err := json.Unmarshal(pr.body, &out); err != nil {
		return 0, fmt.Errorf("cluster: decoding snapshot PUT response from %s: %w", b.addr, err)
	}
	return out.Restored, nil
}

// submitSweep posts a sub-sweep spec and returns the shard-local job id.
func (b *backendClient) submitSweep(ctx context.Context, spec sim.SweepSpec) (jobID string, total int, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: encoding sweep spec for %s: %w", b.addr, err)
	}
	pr, err := b.roundTrip(ctx, http.MethodPost, "/v1/sweep", body)
	if err != nil {
		return "", 0, err
	}
	if pr.status != http.StatusAccepted {
		return "", 0, fmt.Errorf("cluster: POST /v1/sweep on %s: status %d: %s", b.addr, pr.status, truncate(pr.body))
	}
	var out struct {
		JobID string `json:"job_id"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(pr.body, &out); err != nil {
		return "", 0, fmt.Errorf("cluster: decoding sweep accept from %s: %w", b.addr, err)
	}
	return out.JobID, out.Total, nil
}

// truncate clips an error body for inclusion in an error message.
func truncate(b []byte) string {
	const max = 256
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
