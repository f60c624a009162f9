package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bright/internal/core"
	"bright/internal/sim"
)

// The traced run records spans from the benchmark's own code around
// the calls into each layer: the client's operation, the HTTP handlers
// (sim.NewHandler and the cluster coordinator, wrapped), and the solver
// seam (sim.Options.Solver and BatchChain, wrapped around the
// production solvers). Spans stay in memory and are written out when
// the run ends.

// Span names.
const (
	spanOp       = "op"
	spanHandler  = "sim.handler"
	spanCoord    = "cluster.coordinator"
	spanEvaluate = "core.evaluate"
	spanPrefetch = "core.prefetch"
	spanReplay   = "replay"
)

// Headers carrying the parent span across HTTP hops. A request without
// them is not traced, which is how a traced run interleaves traced and
// untraced operations.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Request"
)

// span is one timed call. Times are nanoseconds since the tracer
// started. Mark, on handler spans, is when the reply began: the answer
// was ready.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Mark   int64  `json:"mark_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	base time.Time
	ids  atomic.Uint64
	// cur is the traced operation in flight on a one-client workload,
	// the parent of solver spans whose context carries none (sweep
	// jobs run detached from the submitting request).
	cur atomic.Pointer[span]

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// open starts a span; a zero req inherits a request id from the span ID.
func (t *tracer) open(name string, parent uint64, req string) *span {
	s := &span{ID: t.ids.Add(1), Parent: parent, Name: name, Req: req}
	if s.Req == "" {
		s.Req = "req-" + strconv.FormatUint(s.ID, 10)
	}
	s.Start = t.now()
	return s
}

func (t *tracer) close(s *span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far, to delimit a phase.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the spans recorded after mark m.
func (t *tracer) since(m int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[m:]...)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// parentOf returns the span a call made under ctx belongs to.
func (t *tracer) parentOf(ctx context.Context) *span {
	if s, ok := ctx.Value(spanKey{}).(*span); ok {
		return s
	}
	return t.cur.Load()
}

// setHeaders marks an outgoing request as part of span s.
func setHeaders(h http.Header, s *span) {
	h.Set(hdrSpan, strconv.FormatUint(s.ID, 10))
	h.Set(hdrReq, s.Req)
}

// markWriter records when the reply starts.
type markWriter struct {
	http.ResponseWriter
	t *tracer
	s *span
}

func (m *markWriter) WriteHeader(code int) {
	if m.s.Mark == 0 {
		m.s.Mark = m.t.now()
	}
	m.ResponseWriter.WriteHeader(code)
}

func (m *markWriter) Write(b []byte) (int, error) {
	if m.s.Mark == 0 {
		m.s.Mark = m.t.now()
	}
	return m.ResponseWriter.Write(b)
}

// handler wraps an HTTP handler in a span named name for requests that
// carry a parent span.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		if err != nil || parent == 0 {
			next.ServeHTTP(w, r)
			return
		}
		s := t.open(name, parent, r.Header.Get(hdrReq))
		next.ServeHTTP(&markWriter{ResponseWriter: w, t: t, s: s}, r.WithContext(withSpan(r.Context(), s)))
		t.close(s)
	})
}

// transport forwards the span of the request's context as headers, so
// the coordinator's calls into its backends stay linked to the
// coordinator span that made them.
type transport struct {
	base http.RoundTripper
}

func (tp transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if s, ok := r.Context().Value(spanKey{}).(*span); ok {
		r = r.Clone(r.Context())
		setHeaders(r.Header, s)
	}
	return tp.base.RoundTrip(r)
}

// solver wraps the solver seam in core.evaluate spans.
func (t *tracer) solver(next sim.Solver) sim.Solver {
	return func(ctx context.Context, cfg core.Config) (*core.Report, error) {
		p := t.parentOf(ctx)
		if p == nil {
			return next(ctx, cfg)
		}
		s := t.open(spanEvaluate, p.ID, p.Req)
		rep, err := next(ctx, cfg)
		t.close(s)
		return rep, err
	}
}

// prefetch wraps a chain prefetch in core.prefetch spans.
func (t *tracer) prefetch(next sim.ChainPrefetch) sim.ChainPrefetch {
	return func(ctx context.Context, cfgs []core.Config) error {
		p := t.parentOf(ctx)
		if p == nil {
			return next(ctx, cfgs)
		}
		s := t.open(spanPrefetch, p.ID, p.Req)
		err := next(ctx, cfgs)
		t.close(s)
		return err
	}
}

// engineOptions are the engine options a workload runs with: the
// production defaults, or with tracing the production solvers behind
// the span wrappers. Setting Solver alone would leave sweep chains on
// the stateless solver, so BatchChain wraps core.NewBatch as the
// default does.
func engineOptions(t *tracer) sim.Options {
	if t == nil {
		return sim.Options{}
	}
	return sim.Options{
		Solver: t.solver(sim.DefaultSolver),
		BatchChain: func() (sim.Solver, sim.ChainPrefetch) {
			b := core.NewBatch()
			return t.solver(b.EvaluateContext), t.prefetch(b.PrefetchChain)
		},
	}
}

// selfTime is the part of [start, end) that no child interval covers.
func selfTime(start, end int64, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a > cur.b:
			covered += cur.b - cur.a
			cur = v
		case v.b > cur.b:
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return end - start - covered
}

// spanSet indexes a phase's spans by name and by parent.
type spanSet struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanSet {
	s := spanSet{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, sp := range spans {
		s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		if sp.Parent != 0 {
			s.children[sp.Parent] = append(s.children[sp.Parent], sp)
		}
	}
	return s
}

const nsPerMS = 1e6

// meanDurMS is the mean duration of the spans named name.
func (s spanSet) meanDurMS(name string) float64 {
	var xs []float64
	for _, sp := range s.byName[name] {
		xs = append(xs, float64(sp.dur())/nsPerMS)
	}
	return mean(xs)
}

// meanSelfMS is the mean self time of the spans named name.
func (s spanSet) meanSelfMS(name string) float64 {
	var xs []float64
	for _, sp := range s.byName[name] {
		xs = append(xs, float64(selfTime(sp.Start, sp.End, s.children[sp.ID]))/nsPerMS)
	}
	return mean(xs)
}

// meanWaitMS is the mean time handler spans named name spent before
// their reply started, minus the solver work inside that interval: the
// request decode, cache lookup, single-flight and queue wait.
func (s spanSet) meanWaitMS(name string) float64 {
	var xs []float64
	for _, sp := range s.byName[name] {
		if sp.Mark == 0 {
			continue
		}
		xs = append(xs, float64(selfTime(sp.Start, sp.Mark, s.children[sp.ID]))/nsPerMS)
	}
	return mean(xs)
}
