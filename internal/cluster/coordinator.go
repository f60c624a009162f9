package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"bright/internal/obs"
	"bright/internal/sim"
)

// healthFailures is how many consecutive failed probes mark a backend
// dead, and how many consecutive failed snapshot pushes readmit a
// rejoining one cold. Two: one lost packet must not reshard the ring.
const healthFailures = 2

// Options configures a Coordinator.
type Options struct {
	// Backends is the shard set, as host:port addresses. Required,
	// non-empty, duplicate-free.
	Backends []string
	// HedgeMin floors the hedge delay: a second attempt for a slow
	// request never launches earlier than this, even when the observed
	// p99 is lower (default 250ms). The effective delay is
	// max(HedgeMin, p99 of the proxy latency histogram).
	HedgeMin time.Duration
	// QuotaRPS is the per-client admission rate in requests/second for
	// the solve-submitting endpoints (/v1/evaluate, /v1/sweep); 0
	// disables admission control.
	QuotaRPS float64
	// QuotaBurst is the token-bucket depth (default 10).
	QuotaBurst int
	// HealthInterval paces the liveness probes (default 2s).
	HealthInterval time.Duration
	// SnapshotInterval paces the cache-snapshot pulls that feed warm
	// rejoin; 0 disables snapshotting (default 30s when unset via
	// NewCoordinator's defaulting, explicit negative disables).
	SnapshotInterval time.Duration
	// Client is the HTTP client for backend traffic; nil uses a
	// dedicated client with no overall timeout (per-request contexts
	// bound each call).
	Client *http.Client
	// Metrics is the registry the coordinator publishes bright_cluster_*
	// into; nil gives it a private registry (reachable via Metrics()).
	Metrics *obs.Registry
}

// Coordinator fronts a fleet of brightd shards: consistent-hash
// routing with hedging and failover for point evaluations, whole-chain
// partitioning for sweeps, per-client admission control, health-gated
// ring membership and warm cache hand-off for rejoining shards.
type Coordinator struct {
	opts    Options
	ring    *ring
	clients map[string]*backendClient
	proxies map[string]*httputil.ReverseProxy
	quota   *tokenBuckets
	jobs    *clusterJobs
	reg     *obs.Registry

	sessMu   sync.Mutex
	sessions map[string]string // session id -> backend addr
	sessRR   atomic.Uint64

	snapMu    sync.Mutex
	snapshots map[string]sim.CacheSnapshot // last pulled snapshot per backend

	m clusterMetrics
}

type clusterMetrics struct {
	routed           map[string]*obs.Counter
	backendUp        map[string]*obs.Gauge
	hedges           *obs.Counter
	hedgeWins        *obs.Counter
	failovers        *obs.Counter
	quotaRejected    *obs.Counter
	snapshotPulls    *obs.Counter
	snapshotRestores *obs.Counter
	coldRejoins      *obs.Counter
	chainResubmits   *obs.Counter
	proxyDur         *obs.Histogram
}

// NewCoordinator validates the options, builds the ring and registers
// the bright_cluster_* metric families. Run must be started for health
// checking, snapshot pulls and sweep progress to happen: sweeps are
// advanced (polled, recovered from shard loss, finished) only by Run's
// loop, once per HealthInterval, so a sweep submitted through a
// coordinator whose Run is not running never completes, and GET
// /v1/jobs/{id} reflects progress as of the last pass — at most one
// HealthInterval old. Evaluates and sessions work without Run (all
// backends presumed alive).
func NewCoordinator(opts Options) (*Coordinator, error) {
	r, err := newRing(opts.Backends)
	if err != nil {
		return nil, err
	}
	if opts.HedgeMin <= 0 {
		opts.HedgeMin = 250 * time.Millisecond
	}
	if opts.QuotaBurst <= 0 {
		opts.QuotaBurst = 10
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 2 * time.Second
	}
	if opts.SnapshotInterval == 0 {
		opts.SnapshotInterval = 30 * time.Second
	}
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}

	c := &Coordinator{
		opts:      opts,
		ring:      r,
		clients:   make(map[string]*backendClient, len(opts.Backends)),
		proxies:   make(map[string]*httputil.ReverseProxy, len(opts.Backends)),
		quota:     newTokenBuckets(opts.QuotaRPS, opts.QuotaBurst, nil),
		jobs:      newClusterJobs(),
		reg:       reg,
		sessions:  make(map[string]string),
		snapshots: make(map[string]sim.CacheSnapshot),
	}
	for _, addr := range opts.Backends {
		c.clients[addr] = &backendClient{addr: addr, hc: hc}
		target := &url.URL{Scheme: "http", Host: addr}
		proxy := httputil.NewSingleHostReverseProxy(target)
		// Streaming session frames (SSE/NDJSON) must flow through
		// unbuffered; -1 flushes after every write.
		proxy.FlushInterval = -1
		c.proxies[addr] = proxy
	}

	c.m = clusterMetrics{
		routed:    make(map[string]*obs.Counter, len(opts.Backends)),
		backendUp: make(map[string]*obs.Gauge, len(opts.Backends)),
		hedges: reg.Counter("bright_cluster_hedges_total",
			"Hedged second attempts launched for slow shards."),
		hedgeWins: reg.Counter("bright_cluster_hedge_wins_total",
			"Hedged attempts that answered before the primary."),
		failovers: reg.Counter("bright_cluster_failovers_total",
			"Requests retried on another shard after a failure."),
		quotaRejected: reg.Counter("bright_cluster_quota_rejected_total",
			"Requests rejected by per-client admission control (429)."),
		snapshotPulls: reg.Counter("bright_cluster_snapshot_pulls_total",
			"Cache snapshots pulled from shards."),
		snapshotRestores: reg.Counter("bright_cluster_snapshot_restores_total",
			"Cache snapshots pushed into rejoining shards."),
		coldRejoins: reg.Counter("bright_cluster_cold_rejoins_total",
			"Shards readmitted cold after consecutive failed snapshot pushes."),
		chainResubmits: reg.Counter("bright_cluster_chain_resubmits_total",
			"Sweep chains resubmitted after losing their shard."),
		proxyDur: reg.Histogram("bright_cluster_proxy_duration_seconds",
			"Latency of proxied backend exchanges.", obs.DefLatencyBuckets),
	}
	for _, addr := range opts.Backends {
		//lint:ignore obsreg one-time constructor registration over the static backend list, bounded cardinality
		c.m.routed[addr] = reg.Counter("bright_cluster_routed_total",
			"Requests routed per shard.", obs.L("backend", addr))
		//lint:ignore obsreg one-time constructor registration over the static backend list, bounded cardinality
		up := reg.Gauge("bright_cluster_backend_up",
			"Shard liveness (1 alive, 0 dead).", obs.L("backend", addr))
		up.Set(1)
		c.m.backendUp[addr] = up
	}
	reg.GaugeFunc("bright_cluster_backends",
		"Configured shard count.", func() float64 { return float64(len(opts.Backends)) })
	reg.GaugeFunc("bright_cluster_backends_alive",
		"Shards currently passing health checks.", func() float64 { return float64(c.ring.aliveCount()) })
	return c, nil
}

// Metrics returns the registry carrying the bright_cluster_* families.
func (c *Coordinator) Metrics() *obs.Registry { return c.reg }

// hedgeDelay derives the hedge launch delay from the observed proxy
// latency distribution: max(HedgeMin, p99). An empty histogram (cold
// start) yields the floor.
func (c *Coordinator) hedgeDelay() time.Duration {
	p99 := time.Duration(c.m.proxyDur.Quantile(0.99) * float64(time.Second))
	if p99 < c.opts.HedgeMin {
		return c.opts.HedgeMin
	}
	return p99
}

// --- HTTP surface ----------------------------------------------------

type errorBody struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable,omitempty"`
}

func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("cluster: %s %s: encoding %T response after status %d: %v",
			r.Method, r.URL.Path, v, status, err)
	}
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, r, status, errorBody{Error: err.Error()})
}

// clientID identifies the quota principal: the X-Client-ID header when
// the client presents one, else the remote host (not host:port — every
// connection from one machine shares a bucket).
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit runs admission control, answering 429 (with Retry-After and a
// retryable error body, the same convention the shards use for
// backpressure) when the client's bucket is dry.
func (c *Coordinator) admit(w http.ResponseWriter, r *http.Request) bool {
	ok, retryAfter := c.quota.allow(clientID(r))
	if ok {
		return true
	}
	c.m.quotaRejected.Inc()
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds())))
	writeJSON(w, r, http.StatusTooManyRequests,
		errorBody{Error: "cluster: per-client request quota exceeded", Retryable: true})
	return false
}

// Handler wires the coordinator's HTTP surface — the same API shape the
// shards serve, so clients need not know whether they talk to one node
// or a fleet:
//
//	POST /v1/evaluate    — routed by canonical key, hedged + failover
//	POST /v1/sweep       — partitioned into whole chains across shards
//	GET  /v1/jobs/{id}   — merged chain sub-jobs as of the last sweep pass
//	GET  /v1/stats       — per-shard stats plus cluster aggregates
//	GET  /metrics        — bright_cluster_* plus this process's obs.Default
//	GET  /healthz        — coordinator liveness
//	     /v1/sessions... — streamed passthrough with session affinity
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", c.handleEvaluate)
	mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok", "role": "coordinator"})
	})
	mux.Handle("GET /metrics", obs.Handler(c.reg, obs.Default))

	mux.HandleFunc("POST /v1/sessions", c.handleSessionCreate)
	mux.HandleFunc("POST /v1/sessions/restore", c.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", c.handleSessionList)
	mux.HandleFunc("/v1/sessions/{id}", c.handleSessionProxy)
	mux.HandleFunc("/v1/sessions/{id}/{op}", c.handleSessionProxy)
	return mux
}

// handleEvaluate routes one evaluation by its configuration's canonical
// key — the same key the shard's memoization cache uses, so repeats of
// a configuration always land on the shard that has it cached.
func (c *Coordinator) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w, r) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var req sim.EvaluateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	pr, err := c.forwardEvaluate(r.Context(), req.Config().CanonicalKey(), body)
	if err != nil {
		writeError(w, r, http.StatusBadGateway, err)
		return
	}
	pr.writeTo(w, r)
}

// attemptOutcome is one backend attempt's result inside the hedged
// exchange.
type attemptOutcome struct {
	pr      *proxyResponse
	err     error
	backend string
	hedged  bool
}

// forwardEvaluate performs the hedged, failover-capable exchange:
//
//   - the primary shard is the ring owner of the key;
//   - if it has not answered after the p99-derived hedge delay, ONE
//     hedge launches on the next alive shard (never more — hedges must
//     cap the fleet's duplicated work at 2x on the tail, not amplify
//     overload);
//   - transport errors and 5xx answers fail over to the next shard once;
//   - 2xx–4xx answers are definitive (a 400 is the client's problem, no
//     other shard will disagree).
func (c *Coordinator) forwardEvaluate(ctx context.Context, key string, body []byte) (*proxyResponse, error) {
	primary, ok := c.ring.lookup(key)
	if !ok {
		return nil, fmt.Errorf("cluster: no alive backends")
	}
	outcomes := make(chan attemptOutcome, 2)
	attempt := func(addr string, hedged bool) {
		c.m.routed[addr].Inc()
		start := time.Now()
		pr, err := c.clients[addr].roundTrip(ctx, http.MethodPost, "/v1/evaluate", body)
		c.m.proxyDur.Observe(time.Since(start).Seconds())
		outcomes <- attemptOutcome{pr: pr, err: err, backend: addr, hedged: hedged}
	}
	go attempt(primary, false)

	hedgeTimer := time.NewTimer(c.hedgeDelay())
	defer hedgeTimer.Stop()
	pending := 1
	hedged := false
	failedOver := false
	var lastFailure attemptOutcome
	for pending > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeTimer.C:
			if hedged {
				continue
			}
			if next, ok := c.ring.next(key, primary); ok {
				hedged = true
				c.m.hedges.Inc()
				pending++
				go attempt(next, true)
			}
		case out := <-outcomes:
			pending--
			definitive := out.err == nil && out.pr.status < 500
			if definitive {
				if out.hedged {
					c.m.hedgeWins.Inc()
				}
				return out.pr, nil
			}
			lastFailure = out
			if pending > 0 {
				continue // the other in-flight attempt may still win
			}
			if !failedOver {
				if next, ok := c.ring.next(key, out.backend); ok {
					failedOver = true
					c.m.failovers.Inc()
					pending++
					go attempt(next, false)
				}
			}
		}
	}
	if lastFailure.err != nil {
		return nil, lastFailure.err
	}
	return lastFailure.pr, nil // the shard's own 5xx, replayed verbatim
}

// handleStats merges the fleet view: each alive shard's stats verbatim
// plus the coordinator's own aggregates.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	type backendStatus struct {
		Addr  string     `json:"addr"`
		Alive bool       `json:"alive"`
		Stats *sim.Stats `json:"stats,omitempty"`
		Error string     `json:"error,omitempty"`
	}
	addrs := c.ring.backends()
	statuses := make([]backendStatus, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		statuses[i] = backendStatus{Addr: addr, Alive: c.ring.isAlive(addr)}
		if !statuses[i].Alive {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			st, err := c.clients[addr].stats(r.Context())
			if err != nil {
				statuses[i].Error = err.Error()
				return
			}
			statuses[i].Stats = &st
		}(i, addr)
	}
	wg.Wait()

	agg := struct {
		Backends         int    `json:"backends"`
		Alive            int    `json:"alive"`
		Solves           uint64 `json:"solves"`
		CacheHits        uint64 `json:"cache_hits"`
		CacheMisses      uint64 `json:"cache_misses"`
		JobsActive       int    `json:"jobs_active"`
		Hedges           uint64 `json:"hedges"`
		HedgeWins        uint64 `json:"hedge_wins"`
		Failovers        uint64 `json:"failovers"`
		QuotaRejected    uint64 `json:"quota_rejected"`
		SnapshotPulls    uint64 `json:"snapshot_pulls"`
		SnapshotRestores uint64 `json:"snapshot_restores"`
		ChainResubmits   uint64 `json:"chain_resubmits"`
	}{
		Backends:         len(addrs),
		Alive:            c.ring.aliveCount(),
		JobsActive:       len(c.jobs.unfinished()),
		Hedges:           c.m.hedges.Value(),
		HedgeWins:        c.m.hedgeWins.Value(),
		Failovers:        c.m.failovers.Value(),
		QuotaRejected:    c.m.quotaRejected.Value(),
		SnapshotPulls:    c.m.snapshotPulls.Value(),
		SnapshotRestores: c.m.snapshotRestores.Value(),
		ChainResubmits:   c.m.chainResubmits.Value(),
	}
	for _, s := range statuses {
		if s.Stats != nil {
			agg.Solves += s.Stats.Solves
			agg.CacheHits += s.Stats.CacheHits
			agg.CacheMisses += s.Stats.CacheMisses
		}
	}
	writeJSON(w, r, http.StatusOK, map[string]any{
		"cluster":  agg,
		"backends": statuses,
	})
}

// --- streaming session passthrough -----------------------------------

// pickSessionBackend places a new session: round-robin over the alive
// backends (sessions are long-lived and stateful, so spreading them
// beats hashing a one-shot key).
func (c *Coordinator) pickSessionBackend() (string, bool) {
	addrs := c.ring.backends()
	start := int(c.sessRR.Add(1)) % len(addrs)
	for i := range addrs {
		addr := addrs[(start+i)%len(addrs)]
		if c.ring.isAlive(addr) {
			return addr, true
		}
	}
	return "", false
}

// handleSessionCreate places the session, relays the create (or
// restore) call, and on success records the session-id -> backend
// affinity every later call follows.
func (c *Coordinator) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	addr, ok := c.pickSessionBackend()
	if !ok {
		writeError(w, r, http.StatusBadGateway, fmt.Errorf("cluster: no alive backends"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	c.m.routed[addr].Inc()
	pr, err := c.clients[addr].roundTrip(r.Context(), r.Method, r.URL.Path, body)
	if err != nil {
		writeError(w, r, http.StatusBadGateway, err)
		return
	}
	if pr.status/100 == 2 {
		var status struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(pr.body, &status); err == nil && status.ID != "" {
			c.sessMu.Lock()
			c.sessions[status.ID] = addr
			c.sessMu.Unlock()
		}
	}
	pr.writeTo(w, r)
}

// handleSessionList merges every alive shard's session list.
func (c *Coordinator) handleSessionList(w http.ResponseWriter, r *http.Request) {
	var (
		mu     sync.Mutex
		merged = []json.RawMessage{}
		wg     sync.WaitGroup
	)
	for _, addr := range c.ring.backends() {
		if !c.ring.isAlive(addr) {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			var list []json.RawMessage
			if err := c.clients[addr].getInto(r.Context(), "/v1/sessions", &list); err != nil {
				log.Printf("cluster: listing sessions on %s: %v", addr, err)
				return
			}
			mu.Lock()
			merged = append(merged, list...)
			mu.Unlock()
		}(addr)
	}
	wg.Wait()
	writeJSON(w, r, http.StatusOK, merged)
}

// handleSessionProxy streams any per-session call (frames included)
// to the backend owning the session.
func (c *Coordinator) handleSessionProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.sessMu.Lock()
	addr, ok := c.sessions[id]
	c.sessMu.Unlock()
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("cluster: unknown session %q", id))
		return
	}
	if !c.ring.isAlive(addr) {
		writeError(w, r, http.StatusBadGateway,
			fmt.Errorf("cluster: session %q is on dead backend %s", id, addr))
		return
	}
	c.m.routed[addr].Inc()
	c.proxies[addr].ServeHTTP(w, r)
	if r.Method == http.MethodDelete {
		c.sessMu.Lock()
		delete(c.sessions, id)
		c.sessMu.Unlock()
	}
}

// --- background loops -------------------------------------------------

// Run drives the health, sweep and snapshot loops until ctx cancels.
// Every health tick is followed by a sweep pass, so sweeps recover on
// the liveness the tick just established. It probes once immediately
// so a coordinator started against a partially dead fleet converges
// before the first tick.
func (c *Coordinator) Run(ctx context.Context) {
	h := newHealthState(len(c.opts.Backends))
	health := time.NewTicker(c.opts.HealthInterval)
	defer health.Stop()
	var snapC <-chan time.Time
	if c.opts.SnapshotInterval > 0 {
		snap := time.NewTicker(c.opts.SnapshotInterval)
		defer snap.Stop()
		snapC = snap.C
	}
	c.healthPass(ctx, h)
	for {
		select {
		case <-ctx.Done():
			return
		case <-health.C:
			c.healthPass(ctx, h)
			c.sweepPass(ctx)
		case <-snapC:
			c.snapshotPass(ctx)
		}
	}
}

// healthState is the health loop's per-backend failure streaks, owned
// by the goroutine running Run.
type healthState struct {
	probeFails map[string]int // consecutive failed liveness probes
	pushFails  map[string]int // consecutive failed warm-rejoin pushes
}

func newHealthState(n int) *healthState {
	return &healthState{probeFails: make(map[string]int, n), pushFails: make(map[string]int, n)}
}

// healthPass probes every backend once. A backend goes dead after
// healthFailures consecutive failed probes; a dead backend that answers
// a probe rejoins through rejoin.
func (c *Coordinator) healthPass(ctx context.Context, h *healthState) {
	for _, addr := range c.ring.backends() {
		probeCtx, cancel := context.WithTimeout(ctx, c.opts.HealthInterval)
		err := c.clients[addr].health(probeCtx)
		cancel()
		if err != nil {
			h.probeFails[addr]++
			h.pushFails[addr] = 0
			if h.probeFails[addr] >= healthFailures && c.ring.isAlive(addr) {
				c.ring.setAlive(addr, false)
				c.m.backendUp[addr].Set(0)
				log.Printf("cluster: backend %s dead after %d failed probes: %v", addr, h.probeFails[addr], err)
			}
			continue
		}
		h.probeFails[addr] = 0
		if !c.ring.isAlive(addr) {
			c.rejoin(ctx, addr, h)
		}
	}
}

// rejoin warms a recovered backend from its last pulled snapshot
// *before* the ring routes to it, so rejoin traffic lands on a warm
// cache. The push is bounded like a pull. A failed push keeps the
// backend out of the ring, to retry on the next health pass; after
// healthFailures consecutive failed pushes it is readmitted cold, so a
// shard that cannot take its snapshot still serves.
func (c *Coordinator) rejoin(ctx context.Context, addr string, h *healthState) {
	c.snapMu.Lock()
	snap, ok := c.snapshots[addr]
	c.snapMu.Unlock()
	if ok && len(snap.Entries) > 0 {
		pushCtx, cancel := context.WithTimeout(ctx, c.snapshotTimeout())
		restored, err := c.clients[addr].putSnapshot(pushCtx, snap)
		cancel()
		if err != nil {
			h.pushFails[addr]++
			if h.pushFails[addr] < healthFailures {
				log.Printf("cluster: warm rejoin of %s: snapshot push %d failed, retrying next pass: %v",
					addr, h.pushFails[addr], err)
				return
			}
			c.m.coldRejoins.Inc()
			log.Printf("cluster: backend %s rejoined cold after %d failed snapshot pushes: %v",
				addr, h.pushFails[addr], err)
		} else {
			c.m.snapshotRestores.Inc()
			log.Printf("cluster: backend %s rejoined warm (%d cache entries restored)", addr, restored)
		}
	} else {
		log.Printf("cluster: backend %s rejoined cold (no snapshot on hand)", addr)
	}
	h.pushFails[addr] = 0
	c.ring.setAlive(addr, true)
	c.m.backendUp[addr].Set(1)
}

// snapshotTimeout bounds one snapshot pull or push: the snapshot
// interval, or 10s when the ticker is disabled and passes run manually.
func (c *Coordinator) snapshotTimeout() time.Duration {
	if c.opts.SnapshotInterval > 0 {
		return c.opts.SnapshotInterval
	}
	return 10 * time.Second
}

// snapshotPass pulls each alive backend's cache snapshot, keeping the
// newest per backend as its warm-rejoin payload.
func (c *Coordinator) snapshotPass(ctx context.Context) {
	timeout := c.snapshotTimeout()
	for _, addr := range c.ring.backends() {
		if !c.ring.isAlive(addr) {
			continue
		}
		pullCtx, cancel := context.WithTimeout(ctx, timeout)
		snap, err := c.clients[addr].getSnapshot(pullCtx)
		cancel()
		if err != nil {
			log.Printf("cluster: snapshot pull from %s: %v", addr, err)
			continue
		}
		c.m.snapshotPulls.Inc()
		c.snapMu.Lock()
		c.snapshots[addr] = snap
		c.snapMu.Unlock()
	}
}
