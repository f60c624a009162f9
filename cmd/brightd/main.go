// Command brightd is the bright simulation server: a long-running HTTP
// daemon exposing the integrated microfluidic power-and-cooling model as
// a concurrent evaluation service backed by internal/sim's worker pool,
// memoizing cache and batched sweep jobs.
//
// Endpoints (JSON over HTTP):
//
//	POST /v1/evaluate  — solve one configuration (fields default to the
//	                     paper's nominal point); synchronous
//	POST /v1/sweep     — submit a batched design-space sweep; returns a
//	                     job id immediately (202)
//	GET  /v1/jobs/{id} — poll a sweep job: state, progress, streamed
//	                     per-point results
//	GET  /v1/stats     — cache hit rate, queue depth, worker utilization
//	                     and solve latencies (plus streaming-session
//	                     aggregates under "stream")
//	GET  /metrics      — Prometheus text exposition: serving metrics plus
//	                     Krylov/cosim/thermal solver telemetry and the
//	                     bright_stream_* session series
//	POST /v1/sessions  — open a streaming digital-twin session (see
//	                     internal/stream): workload-driven transient
//	                     electro-thermal co-simulation, frames streamed
//	                     from GET /v1/sessions/{id}/frames as SSE or
//	                     NDJSON, with advance/utilization/checkpoint/
//	                     restore sub-endpoints. A full cap answers 429
//	                     with Retry-After.
//
// The job queue is bounded: when it is full, /v1/evaluate answers 503
// with a Retry-After header (backpressure) instead of queueing
// unbounded work; a 503 without Retry-After means the daemon is
// shutting down. Every response carries an X-Request-ID header that the
// access log echoes, correlating client-visible failures with server
// log lines. SIGINT/SIGTERM trigger a graceful shutdown that stops
// accepting requests, drains in-flight solves, and exits.
//
// Usage:
//
//	brightd [-addr :8080] [-workers N] [-queue N] [-cache N]
//	        [-request-timeout 5m] [-drain-timeout 30s] [-debug-addr :6060]
//	        [-max-sessions N] [-session-idle-timeout 2m] [-session-ring N]
//
// -max-sessions caps concurrently open streaming sessions (the 429
// admission bound), -session-idle-timeout reaps sessions no client has
// touched, and -session-ring sizes each session's recent-frame buffer
// (a slow consumer falls behind by at most this many frames before the
// ring drops the oldest).
//
// Coordinator mode (-coordinator -backends host:port,host:port,...)
// turns the daemon into a stateless cluster front (internal/cluster)
// instead of a solving node: the same HTTP surface, with /v1/evaluate
// consistent-hashed across the backend brightds by canonical
// configuration key, /v1/sweep partitioned into whole warm-start
// chains, slow shards hedged once after a p99-derived delay, dead
// shards health-checked out of the ring and handed their last cache
// snapshot on rejoin, and per-client token-bucket admission control
// (-quota-rps/-quota-burst; 429 + Retry-After past the burst).
// -hedge-min floors the hedge delay, -health-interval paces liveness
// probes, -snapshot-interval paces the cache-snapshot pulls that make
// warm rejoin possible and bounds each pull and rejoin push. Sweeps advance in the coordinator's own loop:
// every health tick polls each unfinished chain's shard and resubmits
// the chains whose shard died, so a sweep finishes and recovers from
// shard loss with no client polling; GET /v1/jobs/{id} reports progress
// as of the last tick, so it may lag by up to -health-interval.
//
// -debug-addr starts an opt-in debug listener serving net/http/pprof
// under /debug/pprof/ — kept off the public address so profiling
// endpoints are never exposed to clients by accident.
//
// Each solve runs its numeric kernels serially on its own goroutine;
// the daemon's parallelism is the worker pool (-workers) plus
// concurrent streaming sessions. The solvers' preconditioner and sparse
// layout are not configurable: each solver picks them from its operator
// (see num.NewSparseSolverSymmetric).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bright/internal/cluster"
	"bright/internal/sim"
	"bright/internal/stream"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", runtime.NumCPU(), "worker pool size")
		queueDepth   = flag.Int("queue", 64, "bounded job queue depth (full queue => 503)")
		cacheSize    = flag.Int("cache", 256, "memoization LRU capacity in reports (negative disables)")
		reqTimeout   = flag.Duration("request-timeout", 5*time.Minute, "per-request solve timeout")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain budget")
		debugAddr    = flag.String("debug-addr", "",
			"opt-in debug listener serving /debug/pprof/ (empty = disabled)")
		maxSessions = flag.Int("max-sessions", 8,
			"streaming session cap; admissions past it answer 429")
		sessionIdle = flag.Duration("session-idle-timeout", 2*time.Minute,
			"reap streaming sessions with no client interaction for this long")
		sessionRing = flag.Int("session-ring", 256,
			"frames buffered per streaming session (drop-oldest past this)")
		coordMode = flag.Bool("coordinator", false,
			"run as a cluster coordinator fronting -backends instead of a solving node")
		backends = flag.String("backends", "",
			"comma-separated backend host:port list (coordinator mode)")
		hedgeMin = flag.Duration("hedge-min", 250*time.Millisecond,
			"floor for the hedged-retry delay (coordinator mode)")
		quotaRPS = flag.Float64("quota-rps", 0,
			"per-client admission rate for solve submissions, 0 disables (coordinator mode)")
		quotaBurst = flag.Int("quota-burst", 10,
			"per-client admission burst (coordinator mode)")
		healthInterval = flag.Duration("health-interval", 2*time.Second,
			"backend liveness probe period (coordinator mode)")
		snapshotInterval = flag.Duration("snapshot-interval", 30*time.Second,
			"backend cache-snapshot pull period and the bound on each pull or rejoin push, <0 disables pulls (coordinator mode)")
	)
	flag.Parse()

	if *coordMode {
		runCoordinator(coordinatorConfig{
			addr:             *addr,
			backends:         *backends,
			hedgeMin:         *hedgeMin,
			quotaRPS:         *quotaRPS,
			quotaBurst:       *quotaBurst,
			healthInterval:   *healthInterval,
			snapshotInterval: *snapshotInterval,
			reqTimeout:       *reqTimeout,
			drainTimeout:     *drainTimeout,
		})
		return
	}

	if *debugAddr != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("brightd: debug listener (pprof) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dm); err != nil {
				log.Printf("brightd: debug listener: %v", err)
			}
		}()
	}

	engine := sim.New(sim.Options{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		CacheSize:  *cacheSize,
	})
	sessions := stream.NewManager(stream.Options{
		MaxSessions: *maxSessions,
		IdleTimeout: *sessionIdle,
		RingSize:    *sessionRing,
	})

	handler := withRequestTimeout(*reqTimeout,
		sim.WithAccessLog(sim.NewHandler(engine, sim.WithStreamManager(sessions))))
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("brightd: listening on %s (%d workers, queue %d, cache %d)",
			*addr, *workers, *queueDepth, *cacheSize)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		log.Fatalf("brightd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("brightd: signal received, draining (budget %s)", *drainTimeout)
	// The root context is already canceled by the signal at this point;
	// the drain budget must run on a fresh context or Shutdown would
	// return immediately.
	//lint:ignore ctxpropagate shutdown drain runs after the root context is canceled
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("brightd: http shutdown: %v", err)
	}
	if err := sessions.Shutdown(shutdownCtx); err != nil {
		log.Printf("brightd: session shutdown: %v", err)
	}
	if err := engine.Shutdown(shutdownCtx); err != nil {
		log.Printf("brightd: engine shutdown: %v", err)
	}
	log.Printf("brightd: bye")
}

// coordinatorConfig carries the coordinator-mode flags.
type coordinatorConfig struct {
	addr             string
	backends         string
	hedgeMin         time.Duration
	quotaRPS         float64
	quotaBurst       int
	healthInterval   time.Duration
	snapshotInterval time.Duration
	reqTimeout       time.Duration
	drainTimeout     time.Duration
}

// runCoordinator is coordinator-mode main: no engine, no sessions of
// its own — a cluster.Coordinator behind the same middleware stack the
// solving daemon uses.
func runCoordinator(cfg coordinatorConfig) {
	var addrs []string
	for _, a := range strings.Split(cfg.backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	coord, err := cluster.NewCoordinator(cluster.Options{
		Backends:         addrs,
		HedgeMin:         cfg.hedgeMin,
		QuotaRPS:         cfg.quotaRPS,
		QuotaBurst:       cfg.quotaBurst,
		HealthInterval:   cfg.healthInterval,
		SnapshotInterval: cfg.snapshotInterval,
	})
	if err != nil {
		log.Fatalf("brightd: -coordinator: %v (need -backends host:port,...)", err)
	}

	handler := withRequestTimeout(cfg.reqTimeout, sim.WithAccessLog(coord.Handler()))
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go coord.Run(ctx)

	errc := make(chan error, 1)
	go func() {
		log.Printf("brightd: coordinator listening on %s fronting %d backends %v",
			cfg.addr, len(addrs), addrs)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		log.Fatalf("brightd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("brightd: signal received, draining (budget %s)", cfg.drainTimeout)
	// The root context is canceled by the signal already; the drain
	// budget needs a fresh context (see the solving-node path).
	//lint:ignore ctxpropagate shutdown drain runs after the root context is canceled
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("brightd: http shutdown: %v", err)
	}
	log.Printf("brightd: coordinator bye")
}

// withRequestTimeout bounds each request's solve by deriving a deadline
// context; the engine threads it into the iterative solvers, so an
// expired deadline aborts the co-simulation at an iteration boundary
// and surfaces as 504.
func withRequestTimeout(d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
