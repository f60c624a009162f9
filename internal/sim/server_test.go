package sim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bright/internal/cosim"
	"bright/internal/num"
)

func newTestServer(t *testing.T, opts Options) (*Engine, *httptest.Server) {
	t.Helper()
	e := newTestEngine(t, opts)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	return e, srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPEvaluate(t *testing.T) {
	s := &countingSolver{}
	_, srv := newTestServer(t, Options{Workers: 2, Solver: s.solve})

	resp, body := postJSON(t, srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var view ReportView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Config.FlowMLMin != 300 {
		t.Fatalf("override lost: %+v", view.Config)
	}
	// Unspecified fields default to the paper's nominal point.
	if view.Config.SupplyVoltage != 1.0 || view.Config.InletTempC != 27 {
		t.Fatalf("defaults lost: %+v", view.Config)
	}
	if view.ArrayCurrentA <= 0 || view.Summary == "" {
		t.Fatalf("view missing headline numbers: %+v", view)
	}
}

func TestHTTPEvaluateValidation(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, Solver: (&countingSolver{}).solve})
	resp, body := postJSON(t, srv.URL+"/v1/evaluate", `{"flow_ml_min": -10}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config returned %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "flow") {
		t.Fatalf("error body does not explain the problem: %s", body)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/evaluate", `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON returned %d", resp.StatusCode)
	}
}

func TestHTTPStatsHitRate(t *testing.T) {
	s := &countingSolver{}
	_, srv := newTestServer(t, Options{Workers: 2, Solver: s.solve})
	for k := 0; k < 3; k++ {
		resp, body := postJSON(t, srv.URL+"/v1/evaluate", `{}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", k, resp.StatusCode, body)
		}
	}
	var st Stats
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.CacheHitRate <= 0 {
		t.Fatalf("repeated identical requests left hit rate %g, want > 0", st.CacheHitRate)
	}
	if st.Solves != 1 || st.CacheHits != 2 {
		t.Fatalf("solves=%d hits=%d, want 1/2", st.Solves, st.CacheHits)
	}
	if st.Workers != 2 || st.QueueCapacity == 0 {
		t.Fatalf("pool stats missing: %+v", st)
	}
}

func TestHTTPSweepAndJobPolling(t *testing.T) {
	s := &countingSolver{}
	_, srv := newTestServer(t, Options{Workers: 4, Solver: s.solve})

	resp, body := postJSON(t, srv.URL+"/v1/sweep",
		`{"flows_ml_min": [100, 300, 676], "inlet_temps_c": [27, 37]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Total != 6 || accepted.JobID == "" {
		t.Fatalf("unexpected accept body: %s", body)
	}

	deadline := time.Now().Add(10 * time.Second)
	var view JobView
	for {
		getJSON(t, srv.URL+"/v1/jobs/"+accepted.JobID, &view)
		if view.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.State != JobDone || view.Completed != 6 {
		t.Fatalf("job finished %s with %d/%d", view.State, view.Completed, view.Total)
	}
	for _, r := range view.Results {
		if r.Report == nil {
			t.Fatalf("point %d has no report: %+v", r.Index, r)
		}
	}
}

func TestHTTPSweepSurvivesSubmitterDisconnect(t *testing.T) {
	// The sweep must keep running after the submitting request's context
	// dies (the handler detaches the job from the request).
	s := &countingSolver{}
	e, srv := newTestServer(t, Options{Workers: 2, Solver: s.solve})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep",
		bytes.NewBufferString(`{"flows_ml_min": [100, 200]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel() // simulate client disconnect right after the 202

	job, ok := e.Job(accepted.JobID)
	if !ok {
		t.Fatal("job vanished")
	}
	v := waitJob(t, job, 10*time.Second)
	if v.State != JobDone {
		t.Fatalf("job died with the request: %s", v.State)
	}
}

// TestHTTPSolverErrorStatus maps solver failures to statuses: a
// co-simulation that did not converge (wrapped as core wraps it), or a
// Krylov solve that ran out of iterations (wrapped as thermal wraps
// it), is 422 and not retryable, not a 400 client error and not a 5xx
// the coordinator would fail over; other solver errors stay 400 and a
// timeout stays 504. No failure is cached: a repeat solves again.
func TestHTTPSolverErrorStatus(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"no-convergence", fmt.Errorf("core: co-simulation: %w",
			fmt.Errorf("%w after 30 iterations", cosim.ErrNoConvergence)), http.StatusUnprocessableEntity},
		{"krylov-max-iter", fmt.Errorf("thermal: power response solve failed: %w",
			fmt.Errorf("%w: CG after 4000 iters, residual 1.2e-05", num.ErrMaxIter)), http.StatusUnprocessableEntity},
		{"solver-error", errors.New("flowcell: operating point beyond limit"), http.StatusBadRequest},
		{"timeout", context.DeadlineExceeded, http.StatusGatewayTimeout},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &countingSolver{err: c.err}
			_, srv := newTestServer(t, Options{Workers: 1, Solver: s.solve})
			for k := 1; k <= 2; k++ {
				resp, body := postJSON(t, srv.URL+"/v1/evaluate", `{}`)
				if resp.StatusCode != c.want {
					t.Fatalf("status %d, want %d: %s", resp.StatusCode, c.want, body)
				}
				var e errorBody
				if err := json.Unmarshal(body, &e); err != nil {
					t.Fatal(err)
				}
				if e.Retryable || e.Error == "" {
					t.Fatalf("error body %+v, want a non-retryable message", e)
				}
				if got := s.calls.Load(); got != int64(k) {
					t.Fatalf("%d solver calls after %d requests: a failure was cached", got, k)
				}
			}
		})
	}
}

func TestHTTPUnknownJob(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, Solver: (&countingSolver{}).solve})
	resp := getJSON(t, srv.URL+"/v1/jobs/job-424242", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job returned %d", resp.StatusCode)
	}
}

func TestHTTPQueueFullIs503(t *testing.T) {
	s := &countingSolver{block: make(chan struct{})}
	e, srv := newTestServer(t, Options{Workers: 1, QueueDepth: 1, Solver: s.solve})
	defer close(s.block)

	// Saturate: 1 running + 1 queued (distinct configs so no dedup).
	// Plain http.Post here — t.Fatal must not run off the test goroutine.
	for k := 0; k < 2; k++ {
		body := fmt.Sprintf(`{"flow_ml_min": %d}`, 100+k)
		go func() {
			resp, err := http.Post(srv.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	// Wait for both: a probe sent while the queue is still empty would
	// be queued behind the blocked solve and never answered.
	deadline := time.Now().Add(2 * time.Second)
	for s.calls.Load() < 1 || e.Stats().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	var resp *http.Response
	var body []byte
	for time.Now().Before(deadline) {
		resp, body = postJSON(t, srv.URL+"/v1/evaluate", `{"flow_ml_min": 999}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Backpressure surfaced as 503 — and as *retryable* 503:
			// Retry-After distinguishes a momentarily full queue from a
			// terminal shutdown (see TestHTTPClosedEngine503).
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("queue-full 503 missing Retry-After header")
			}
			var eb struct {
				Error     string `json:"error"`
				Retryable bool   `json:"retryable"`
			}
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("decoding 503 body %q: %v", body, err)
			}
			if !eb.Retryable || !strings.Contains(eb.Error, "queue full") {
				t.Fatalf("queue-full body %+v, want retryable with a queue-full error", eb)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("saturated server last returned %d, want 503", resp.StatusCode)
}

// TestHTTPClosedEngine503 pins the other half of the 503 split: a shut
// down engine answers 503 with no Retry-After and a non-retryable body,
// so clients can tell terminal shutdown from transient backpressure.
func TestHTTPClosedEngine503(t *testing.T) {
	e := New(Options{Workers: 1, Solver: (&countingSolver{}).solve})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"/v1/evaluate", "/v1/sweep"} {
		resp, body := postJSON(t, srv.URL+ep, `{}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on closed engine returned %d: %s", ep, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Fatalf("%s: terminal shutdown 503 carries Retry-After %q", ep, ra)
		}
		var eb struct {
			Error     string `json:"error"`
			Retryable bool   `json:"retryable"`
		}
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("decoding 503 body %q: %v", body, err)
		}
		if eb.Retryable || !strings.Contains(eb.Error, "closed") {
			t.Fatalf("%s: shutdown body %+v, want non-retryable engine-closed error", ep, eb)
		}
	}
}

func TestHTTPOversizedSweepGrid(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, Solver: (&countingSolver{}).solve})
	axis := func(n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("%d", 100+i)
		}
		return "[" + strings.Join(vals, ",") + "]"
	}
	// 17 * 16 * 16 = 4352 > MaxSweepPoints (4096).
	body := fmt.Sprintf(`{"flows_ml_min": %s, "inlet_temps_c": %s, "chip_loads": %s}`,
		axis(17), `[20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35]`,
		`[0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85]`)
	resp, respBody := postJSON(t, srv.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep returned %d: %s", resp.StatusCode, respBody)
	}
	if !strings.Contains(string(respBody), "cap") {
		t.Fatalf("oversized-sweep error does not mention the cap: %s", respBody)
	}
}

func TestHTTPMalformedSweepBody(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, Solver: (&countingSolver{}).solve})
	resp, body := postJSON(t, srv.URL+"/v1/sweep", `{"flows_ml_min": "not-a-list"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed sweep body returned %d: %s", resp.StatusCode, body)
	}
}

func TestHTTPRequestIDAssigned(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, Solver: (&countingSolver{}).solve})
	r1 := getJSON(t, srv.URL+"/v1/stats", nil)
	r2 := getJSON(t, srv.URL+"/v1/stats", nil)
	id1, id2 := r1.Header.Get("X-Request-ID"), r2.Header.Get("X-Request-ID")
	if id1 == "" || id2 == "" {
		t.Fatalf("responses missing X-Request-ID: %q, %q", id1, id2)
	}
	if id1 == id2 {
		t.Fatalf("distinct requests shared request ID %q", id1)
	}
}

// failingWriter accepts headers but fails every body write, simulating
// a client that vanished after the status line went out.
type failingWriter struct {
	h http.Header
}

func (f *failingWriter) Header() http.Header {
	if f.h == nil {
		f.h = make(http.Header)
	}
	return f.h
}
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("connection gone") }

func TestWriteJSONLogsEncodeErrors(t *testing.T) {
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	req = req.WithContext(ContextWithRequestID(req.Context(), "test-rid-42"))
	writeJSON(&failingWriter{}, req, http.StatusOK, map[string]string{"k": "v"})

	out := buf.String()
	if !strings.Contains(out, "connection gone") {
		t.Fatalf("encode failure not logged: %q", out)
	}
	if !strings.Contains(out, "test-rid-42") {
		t.Fatalf("encode-failure log missing the request ID: %q", out)
	}
}

// parseMetrics reads Prometheus text exposition into series -> value.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed metrics value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, buf.String())
}

// TestHTTPMetricsEndToEnd runs the production solver through the full
// HTTP surface and asserts the /metrics exposition carries the whole
// pipeline's telemetry: serving counters and the solve-latency
// histogram from the engine registry, plus cosim fixed-point and Krylov
// iteration counters from obs.Default — and that the counters are
// monotone across scrapes.
func TestHTTPMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline solve in -short mode")
	}
	_, srv := newTestServer(t, Options{Workers: 2})

	resp, body := postJSON(t, srv.URL+"/v1/evaluate", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d: %s", resp.StatusCode, body)
	}
	m1 := scrapeMetrics(t, srv.URL)

	if m1["bright_solves_total"] < 1 {
		t.Fatalf("bright_solves_total = %g, want >= 1", m1["bright_solves_total"])
	}
	if m1["bright_solve_duration_seconds_count"] < 1 {
		t.Fatalf("solve latency histogram empty: %v", m1)
	}
	if m1[`bright_solve_duration_seconds_bucket{le="+Inf"}`] != m1["bright_solve_duration_seconds_count"] {
		t.Fatalf("histogram +Inf bucket disagrees with count")
	}
	if _, ok := m1["bright_queue_capacity"]; !ok {
		t.Fatalf("queue gauges missing: %v", m1)
	}
	if _, ok := m1["bright_cache_misses_total"]; !ok {
		t.Fatalf("cache counters missing: %v", m1)
	}
	// Solver telemetry from obs.Default: the evaluate above ran a real
	// co-simulation, which runs fixed-point iterations, thermal session
	// solves and BiCGSTAB solves.
	if m1["bright_cosim_iterations_total"] < 1 {
		t.Fatalf("cosim iterations not counted: %v", m1)
	}
	if m1[`bright_cosim_runs_total{outcome="converged"}`] < 1 {
		t.Fatalf("cosim convergence outcome not counted")
	}
	if m1[`bright_krylov_iterations_total{method="bicgstab"}`] < 1 {
		t.Fatalf("Krylov iterations not counted")
	}
	if m1[`bright_thermal_session_solves_total{warm="false"}`] < 1 {
		t.Fatalf("thermal session solves not counted")
	}

	// Monotonicity: another (distinct) solve strictly raises the solve
	// and iteration counters and never lowers any counter.
	resp, body = postJSON(t, srv.URL+"/v1/evaluate", `{"inlet_temp_c": 37}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second evaluate: %d: %s", resp.StatusCode, body)
	}
	m2 := scrapeMetrics(t, srv.URL)
	if m2["bright_solves_total"] <= m1["bright_solves_total"] {
		t.Fatalf("solves counter not monotone: %g -> %g",
			m1["bright_solves_total"], m2["bright_solves_total"])
	}
	if m2["bright_cosim_iterations_total"] <= m1["bright_cosim_iterations_total"] {
		t.Fatalf("cosim iteration counter not monotone")
	}
	for _, name := range []string{
		"bright_solve_errors_total", "bright_queue_rejected_total",
		"bright_cache_hits_total", "bright_cache_misses_total",
		`bright_krylov_iterations_total{method="bicgstab"}`,
	} {
		if m2[name] < m1[name] {
			t.Fatalf("counter %s went backwards: %g -> %g", name, m1[name], m2[name])
		}
	}
}

// The wrapper must satisfy the optional upgrade interfaces statically —
// otherwise net/http's type assertions on the wrapped writer fail and
// SSE flushing, hijacking and the sendfile fast path silently degrade.
var (
	_ http.Flusher  = (*statusRecorder)(nil)
	_ http.Hijacker = (*statusRecorder)(nil)
	_ io.ReaderFrom = (*statusRecorder)(nil)
)

// plainWriter is the minimal http.ResponseWriter: no Flusher, no
// Hijacker, no ReaderFrom. Its writes land in buf so fallback paths can
// be checked for data integrity.
type plainWriter struct {
	h      http.Header
	buf    bytes.Buffer
	status int
}

func (w *plainWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *plainWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *plainWriter) WriteHeader(code int)        { w.status = code }

type flushingWriter struct {
	plainWriter
	flushed bool
}

func (w *flushingWriter) Flush() { w.flushed = true }

type hijackableWriter struct {
	plainWriter
	hijacked bool
}

func (w *hijackableWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	w.hijacked = true
	return nil, nil, nil
}

type readerFromWriter struct {
	plainWriter
	delegated bool
}

func (w *readerFromWriter) ReadFrom(src io.Reader) (int64, error) {
	w.delegated = true
	return io.Copy(&w.buf, src)
}

// TestStatusRecorderInterfacePassthrough pins the passthrough contract
// with an interface-assertion table: each optional capability of the
// underlying writer must surface through the wrapper (delegation), and
// each missing capability must degrade the way net/http expects —
// Flush a no-op, Hijack a hard error, ReadFrom a plain copy.
func TestStatusRecorderInterfacePassthrough(t *testing.T) {
	tests := []struct {
		name          string
		underlying    http.ResponseWriter
		wantFlushed   func(http.ResponseWriter) bool
		wantHijackErr bool
		wantHijacked  func(http.ResponseWriter) bool
		wantDelegated func(http.ResponseWriter) bool
	}{
		{
			name:          "plain writer: no-op flush, hijack errors, copy fallback",
			underlying:    &plainWriter{},
			wantHijackErr: true,
		},
		{
			name:          "flusher delegates",
			underlying:    &flushingWriter{},
			wantFlushed:   func(w http.ResponseWriter) bool { return w.(*flushingWriter).flushed },
			wantHijackErr: true,
		},
		{
			name:         "hijacker delegates",
			underlying:   &hijackableWriter{},
			wantHijacked: func(w http.ResponseWriter) bool { return w.(*hijackableWriter).hijacked },
		},
		{
			name:          "readerFrom delegates",
			underlying:    &readerFromWriter{},
			wantDelegated: func(w http.ResponseWriter) bool { return w.(*readerFromWriter).delegated },
			wantHijackErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := &statusRecorder{ResponseWriter: tt.underlying, status: http.StatusOK}

			rec.Flush() // must never panic, whatever the underlying writer
			if tt.wantFlushed != nil && !tt.wantFlushed(tt.underlying) {
				t.Error("Flush not forwarded to the underlying http.Flusher")
			}

			_, _, err := rec.Hijack()
			if tt.wantHijackErr && err == nil {
				t.Error("Hijack on a non-Hijacker underlying writer returned nil error")
			}
			if !tt.wantHijackErr && err != nil {
				t.Errorf("Hijack: %v", err)
			}
			if tt.wantHijacked != nil && !tt.wantHijacked(tt.underlying) {
				t.Error("Hijack not forwarded to the underlying http.Hijacker")
			}

			const payload = "sendfile-sized body"
			n, err := rec.ReadFrom(strings.NewReader(payload))
			if err != nil || n != int64(len(payload)) {
				t.Fatalf("ReadFrom = (%d, %v), want (%d, nil)", n, err, len(payload))
			}
			if tt.wantDelegated != nil && !tt.wantDelegated(tt.underlying) {
				t.Error("ReadFrom not forwarded to the underlying io.ReaderFrom")
			}
			// Whichever path ran, the bytes must have landed.
			var got string
			switch u := tt.underlying.(type) {
			case *plainWriter:
				got = u.buf.String()
			case *flushingWriter:
				got = u.buf.String()
			case *hijackableWriter:
				got = u.buf.String()
			case *readerFromWriter:
				got = u.buf.String()
			}
			if got != payload {
				t.Errorf("ReadFrom wrote %q, want %q", got, payload)
			}
		})
	}
}

// TestAccessLogStreamingPassthrough drives the wrapper through a real
// net/http server: the handler's Flusher assertion must succeed behind
// WithAccessLog, which it would not if statusRecorder merely embedded
// the interface.
func TestAccessLogStreamingPassthrough(t *testing.T) {
	srv := httptest.NewServer(WithAccessLog(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			f, ok := w.(http.Flusher)
			if !ok {
				http.Error(w, "no flusher behind the access-log wrapper", http.StatusInternalServerError)
				return
			}
			fmt.Fprint(w, "frame-1\n")
			f.Flush()
			fmt.Fprint(w, "frame-2\n")
		})))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if string(body) != "frame-1\nframe-2\n" {
		t.Fatalf("streamed body %q", body)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("access-log wrapper did not assign X-Request-ID")
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, Solver: (&countingSolver{}).solve})
	var body map[string]string
	resp := getJSON(t, srv.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", resp.StatusCode)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body %v", body)
	}
}

// TestHTTPCacheSnapshotRoundTrip moves a warm cache between two engines
// over the HTTP surface — the cluster warm-rejoin path end to end: solve
// on A, GET A's snapshot, PUT it into B, and B answers the same configs
// from cache without solving.
func TestHTTPCacheSnapshotRoundTrip(t *testing.T) {
	sa := &countingSolver{}
	_, srvA := newTestServer(t, Options{Workers: 2, Solver: sa.solve})
	sb := &countingSolver{}
	_, srvB := newTestServer(t, Options{Workers: 2, Solver: sb.solve})

	for _, body := range []string{`{"flow_ml_min": 300}`, `{"flow_ml_min": 500}`} {
		resp, b := postJSON(t, srvA.URL+"/v1/evaluate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warming A: %d: %s", resp.StatusCode, b)
		}
	}

	resp, err := http.Get(srvA.URL + "/v1/cache/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snapBody, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: %d: %s", resp.StatusCode, snapBody)
	}
	var snap CacheSnapshot
	if err := json.Unmarshal(snapBody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != CacheSnapshotVersion || len(snap.Entries) != 2 {
		t.Fatalf("snapshot version %d with %d entries, want v%d with 2",
			snap.Version, len(snap.Entries), CacheSnapshotVersion)
	}

	req, _ := http.NewRequest(http.MethodPut, srvB.URL+"/v1/cache/snapshot", bytes.NewReader(snapBody))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var put struct {
		Restored int `json:"restored"`
		Skipped  int `json:"skipped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&put); err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusOK || put.Restored != 2 || put.Skipped != 0 {
		t.Fatalf("PUT snapshot: status %d, restored %d, skipped %d", resp.StatusCode, put.Restored, put.Skipped)
	}

	// B must now answer the warmed configs from cache: zero solves.
	for _, body := range []string{`{"flow_ml_min": 300}`, `{"flow_ml_min": 500}`} {
		resp, b := postJSON(t, srvB.URL+"/v1/evaluate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replaying on B: %d: %s", resp.StatusCode, b)
		}
	}
	if n := sb.calls.Load(); n != 0 {
		t.Fatalf("B solved %d times after restore, want 0 (cache hits)", n)
	}
	var st Stats
	getJSON(t, srvB.URL+"/v1/stats", &st)
	if st.CacheHits != 2 || st.CacheRestored != 2 {
		t.Fatalf("B stats hits=%d restored=%d, want 2/2", st.CacheHits, st.CacheRestored)
	}
}

func TestHTTPCacheSnapshotVersionMismatch(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, Solver: (&countingSolver{}).solve})
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/cache/snapshot",
		strings.NewReader(`{"version": 99, "capacity": 4, "entries": []}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version-99 snapshot returned %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "version") {
		t.Fatalf("version-mismatch error does not name the problem: %s", body)
	}
}

func TestHTTPStatsCacheDisabled(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, CacheSize: -1, Solver: (&countingSolver{}).solve})
	for k := 0; k < 2; k++ {
		resp, body := postJSON(t, srv.URL+"/v1/evaluate", `{}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", k, resp.StatusCode, body)
		}
	}
	var st Stats
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.CacheEnabled {
		t.Fatalf("cache reported enabled with CacheSize -1: %+v", st)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheHitRate != 0 {
		t.Fatalf("disabled cache accumulated counters: %+v", st)
	}
	if st.CacheCapacity != 0 || st.CacheSize != 0 {
		t.Fatalf("disabled cache reports capacity/size: %+v", st)
	}
	if st.Solves != 2 {
		t.Fatalf("solves = %d, want 2 (no memoization without a cache)", st.Solves)
	}
}
