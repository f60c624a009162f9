package sim

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"bright/internal/core"
	"bright/internal/cosim"
	"bright/internal/num"
	"bright/internal/obs"
	"bright/internal/stream"
	"bright/internal/units"
)

// Request-body ceilings. Ordinary API payloads (configs, sweep specs)
// are a few KB, so 1 MiB is already generous; cache-snapshot PUTs carry
// a whole LRU dump on the cluster warm-rejoin path and get the same
// 64 MiB ceiling the coordinator's proxy allows. Anything larger is a
// hostile or broken client, and MaxBytesReader cuts it off instead of
// letting it stream unbounded data into the decoder.
const (
	maxRequestBody  = 1 << 20
	maxSnapshotBody = 64 << 20
)

// ReportView is the JSON-facing condensation of a core.Report: the
// headline quantities of every pipeline stage without the full field
// solutions (which run to megabytes of mesh data).
type ReportView struct {
	Config core.Config `json:"config"`

	// Array electrical operating point.
	ArrayCurrentA float64 `json:"array_current_a"`
	ArrayPowerW   float64 `json:"array_power_w"`
	DeliveredW    float64 `json:"delivered_w"`

	// Cache rail.
	CacheDemandW float64 `json:"cache_demand_w"`
	PowersCaches bool    `json:"powers_caches"`
	MinVCacheV   float64 `json:"min_v_cache_v"`

	// Thermal.
	PeakTempC   float64 `json:"peak_temp_c"`
	OutletTempC float64 `json:"outlet_temp_c"`

	// Hydraulics and net balance.
	PumpPowerW         float64 `json:"pump_power_w"`
	PressureDropBar    float64 `json:"pressure_drop_bar"`
	NetElectricalGainW float64 `json:"net_electrical_gain_w"`

	// Co-simulation diagnostics.
	CoSimIterations int  `json:"cosim_iterations"`
	CoSimConverged  bool `json:"cosim_converged"`

	// Summary is the human-readable block from Report.Summary().
	Summary string `json:"summary"`
}

// NewReportView condenses a full report.
func NewReportView(r *core.Report) ReportView {
	return ReportView{
		Config:             r.Config,
		ArrayCurrentA:      r.CoSim.Operating.Current,
		ArrayPowerW:        r.CoSim.Operating.Power,
		DeliveredW:         r.DeliveredW,
		CacheDemandW:       r.CacheDemandW,
		PowersCaches:       r.PowersCaches,
		MinVCacheV:         r.Grid.MinVCache,
		PeakTempC:          r.PeakTempC,
		OutletTempC:        units.KtoC(r.Thermal.OutletT),
		PumpPowerW:         r.Hydraulics.PumpPower,
		PressureDropBar:    units.PaToBar(r.Hydraulics.TotalDrop),
		NetElectricalGainW: r.NetElectricalGainW,
		CoSimIterations:    r.CoSim.Iterations,
		CoSimConverged:     r.CoSim.Converged,
		Summary:            r.Summary(),
	}
}

// EvaluateRequest is the /v1/evaluate body. Absent fields take the
// paper's nominal operating point (core.DefaultConfig).
type EvaluateRequest struct {
	FlowMLMin      *float64 `json:"flow_ml_min,omitempty"`
	InletTempC     *float64 `json:"inlet_temp_c,omitempty"`
	SupplyVoltage  *float64 `json:"supply_voltage,omitempty"`
	ChipLoad       *float64 `json:"chip_load,omitempty"`
	ManifoldK      *float64 `json:"manifold_k,omitempty"`
	PumpEfficiency *float64 `json:"pump_efficiency,omitempty"`
}

// Config applies the request's overrides on top of the default config.
func (r EvaluateRequest) Config() core.Config {
	cfg := core.DefaultConfig()
	set := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	set(&cfg.FlowMLMin, r.FlowMLMin)
	set(&cfg.InletTempC, r.InletTempC)
	set(&cfg.SupplyVoltage, r.SupplyVoltage)
	set(&cfg.ChipLoad, r.ChipLoad)
	set(&cfg.ManifoldK, r.ManifoldK)
	set(&cfg.PumpEfficiency, r.PumpEfficiency)
	return cfg
}

type errorBody struct {
	Error string `json:"error"`
	// Retryable marks transient conditions (queue backpressure) apart
	// from terminal ones (engine shutdown): both are 503, but only the
	// former is worth retrying against this instance.
	Retryable bool `json:"retryable"`
}

// writeJSON encodes v after the status line. An encode failure at that
// point cannot change the response code anymore, but it must not vanish
// either — a truncated body is otherwise undiagnosable — so it is
// logged with the request ID.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		id := RequestID(r.Context())
		if id == "" {
			id = "-"
		}
		log.Printf("sim: rid=%s %s %s: encoding %T response after status %d: %v",
			id, r.Method, r.URL.Path, v, status, err)
	}
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, r, status, errorBody{Error: err.Error()})
}

// statusFor maps engine errors to HTTP statuses: backpressure and
// shutdown are 503, cancellation/timeout is 504, a co-simulation or a
// Krylov solve (num.ErrNoConvergence, which includes num.ErrMaxIter)
// that did not converge is 422, validation and everything else is 400.
// Non-convergence is not 5xx: the coordinator fails over 5xx answers,
// and a deterministic solve fails the same way on every shard.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, cosim.ErrNoConvergence), errors.Is(err, num.ErrNoConvergence):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// writeEngineError distinguishes the two 503 causes that statusFor
// conflates from the client's point of view: a full queue is retryable
// backpressure (Retry-After says so), engine shutdown is terminal for
// this instance (no Retry-After; go elsewhere).
func writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, r, http.StatusServiceUnavailable,
			errorBody{Error: err.Error(), Retryable: true})
	case errors.Is(err, ErrClosed):
		writeJSON(w, r, http.StatusServiceUnavailable,
			errorBody{Error: err.Error(), Retryable: false})
	default:
		writeError(w, r, statusFor(err), err)
	}
}

// HandlerOption customizes NewHandler's HTTP surface.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	stream *stream.Manager
}

// WithStreamManager mounts the streaming digital-twin session API
// (/v1/sessions...) alongside the evaluation endpoints, folds the
// manager's aggregate counters into /v1/stats (under "stream") and its
// bright_stream_* series into /metrics.
func WithStreamManager(m *stream.Manager) HandlerOption {
	return func(c *handlerConfig) { c.stream = m }
}

// statsResponse embeds the engine stats (keeping the legacy flat JSON
// shape) and appends the streaming-session aggregates when a stream
// manager is mounted.
type statsResponse struct {
	Stats
	Stream *stream.Stats `json:"stream,omitempty"`
}

// NewHandler wires the engine's HTTP surface:
//
//	POST   /v1/evaluate  — solve one configuration (synchronous)
//	POST   /v1/sweep     — submit a batched sweep, returns a job id
//	GET    /v1/jobs/{id} — poll a sweep job (state + streamed results)
//	DELETE /v1/jobs/{id} — cancel a sweep job's remaining points
//	GET    /v1/stats     — serving metrics (cache, queue, latency)
//	GET    /metrics      — Prometheus text exposition: the engine's
//	                       registry plus obs.Default (solver telemetry
//	                       from num, cosim and thermal)
//
// With WithStreamManager, the streaming session API of internal/stream
// (/v1/sessions and friends) is mounted on the same mux.
//
// Every response carries an X-Request-ID header (minted here unless an
// outer middleware already assigned one via EnsureRequestID). Sweep
// jobs are detached from the submitting request's context (they outlive
// it by design); they stop on engine shutdown or Job.Cancel.
func NewHandler(e *Engine, opts ...HandlerOption) http.Handler {
	var hc handlerConfig
	for _, o := range opts {
		o(&hc)
	}
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		var req EvaluateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		rep, err := e.Evaluate(r.Context(), req.Config())
		if err != nil {
			writeEngineError(w, r, err)
			return
		}
		writeJSON(w, r, http.StatusOK, NewReportView(rep))
	})

	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		var spec SweepSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding sweep spec: %w", err))
			return
		}
		// Detach from the request context: the job must keep running
		// after this response is written.
		//lint:ignore ctxpropagate sweep jobs outlive the submitting request by design
		job, err := e.SubmitSweep(context.Background(), spec)
		if err != nil {
			writeEngineError(w, r, err)
			return
		}
		writeJSON(w, r, http.StatusAccepted, map[string]any{
			"job_id": job.ID,
			"total":  job.Total,
		})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := e.Job(r.PathValue("id"))
		if !ok {
			writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, r, http.StatusOK, job.Snapshot())
	})

	// Cancel a sweep job's remaining points; already-solved points stay
	// in the snapshot. Idempotent — canceling a finished job is a no-op.
	// The cluster coordinator uses this to retire a superseded sub-job
	// after re-balancing its chain onto an idle shard.
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := e.Job(r.PathValue("id"))
		if !ok {
			writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		job.Cancel()
		writeJSON(w, r, http.StatusOK, job.Snapshot())
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		resp := statsResponse{Stats: e.Stats()}
		if hc.stream != nil {
			st := hc.stream.Stats()
			resp.Stream = &st
		}
		writeJSON(w, r, http.StatusOK, resp)
	})

	// Liveness probe: answers as long as the process accepts requests.
	// Deliberately free of engine locks so a wedged solve cannot make a
	// healthy-but-busy shard look dead to the cluster coordinator.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
	})

	// Cache snapshot transfer, the cluster warm-rejoin path: GET dumps
	// the report LRU (oldest first), PUT merges a previously captured
	// dump back in. The payload is versioned JSON; a PUT carrying a
	// version this build does not speak is a 400, and entries whose key
	// fails the canonical-key self-check are skipped, not trusted.
	mux.HandleFunc("GET /v1/cache/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, e.CacheSnapshot())
	})
	mux.HandleFunc("PUT /v1/cache/snapshot", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxSnapshotBody)
		var snap CacheSnapshot
		if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding cache snapshot: %w", err))
			return
		}
		restored, skipped, err := e.RestoreCacheSnapshot(snap)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, r, http.StatusOK, map[string]int{"restored": restored, "skipped": skipped})
	})

	registries := []*obs.Registry{e.Metrics(), obs.Default}
	if hc.stream != nil {
		hc.stream.RegisterRoutes(mux)
		registries = append(registries, hc.stream.Metrics())
	}
	mux.Handle("GET /metrics", obs.Handler(registries...))

	return withRequestIDs(mux)
}

// HTTP-surface telemetry for WithAccessLog, alongside the solver
// counters in obs.Default so one /metrics scrape carries both. Status
// classes rather than exact codes keep the cardinality fixed.
var (
	httpRequests = map[int]*obs.Counter{
		2: obs.Default.Counter("bright_http_requests_total", "HTTP responses by status class.", obs.L("class", "2xx")),
		3: obs.Default.Counter("bright_http_requests_total", "HTTP responses by status class.", obs.L("class", "3xx")),
		4: obs.Default.Counter("bright_http_requests_total", "HTTP responses by status class.", obs.L("class", "4xx")),
		5: obs.Default.Counter("bright_http_requests_total", "HTTP responses by status class.", obs.L("class", "5xx")),
	}
	httpDuration = obs.Default.Histogram("bright_http_request_duration_seconds",
		"End-to-end HTTP request latency.", obs.DefLatencyBuckets)
)

// statusRecorder captures the response code for the access log while
// forwarding the optional http.ResponseWriter upgrade interfaces. The
// forwarding matters: a wrapper that only embeds the interface hides
// Flusher/Hijacker/ReaderFrom from type assertions, so SSE frames
// buffer behind the wrapper, connection takeover silently degrades to
// a 500 and sendfile-style copies fall back to userspace buffers.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streamed responses (SSE,
// NDJSON session frames) are not buffered behind the access-log
// wrapper. http.ResponseWriter implementations without Flusher make it
// a no-op, matching net/http's own behavior.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Hijack forwards connection takeover to the underlying writer. Unlike
// Flush there is no safe no-op: a handler that asked to hijack owns the
// connection afterwards, so an underlying writer without the capability
// is a hard error the handler must see.
func (r *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := r.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("sim: underlying ResponseWriter (%T) does not support hijacking", r.ResponseWriter)
	}
	return hj.Hijack()
}

// ReadFrom forwards to the underlying writer's io.ReaderFrom fast path
// (net/http uses it for sendfile on file-backed responses) and falls
// back to a plain copy when the underlying writer lacks one.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(onlyWriter{r.ResponseWriter}, src)
}

// onlyWriter strips every non-Write method so the io.Copy fallback in
// ReadFrom cannot recurse into ReadFrom itself.
type onlyWriter struct{ io.Writer }

// WithAccessLog assigns each request its ID (echoed in the X-Request-ID
// response header and every related server log line), records the HTTP
// telemetry, and writes the access log line. It is the outermost
// middleware of brightd — both the single-node daemon and the cluster
// coordinator wrap their handlers with it.
func WithAccessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r, id := EnsureRequestID(r)
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		httpDuration.Observe(elapsed.Seconds())
		if c, ok := httpRequests[rec.status/100]; ok {
			c.Inc()
		}
		log.Printf("rid=%s %s %s -> %d (%s)", id, r.Method, r.URL.Path, rec.status,
			elapsed.Round(time.Millisecond))
	})
}
