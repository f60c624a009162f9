package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"bright/internal/obs"
)

// Stats is a point-in-time snapshot of the engine's serving metrics,
// shaped for JSON (the brightd /v1/stats endpoint marshals it as-is).
// The same counters back the Prometheus /metrics exposition; this view
// folds them into one JSON object for humans and scripts.
type Stats struct {
	// Pool.
	Workers       int `json:"workers"`
	BusyWorkers   int `json:"busy_workers"`
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	// Cache. When the cache is disabled (non-positive capacity) Enabled
	// is false and every other cache field is zero — there is no cache
	// to have a hit rate.
	CacheEnabled   bool    `json:"cache_enabled"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	CacheSize      int     `json:"cache_size"`
	CacheCapacity  int     `json:"cache_capacity"`
	// CacheRefreshes counts Add calls that overwrote an existing entry
	// (same canonical key solved again); CacheRestored counts entries
	// merged in through PUT /v1/cache/snapshot (cluster warm rejoin).
	CacheRefreshes uint64 `json:"cache_refreshes"`
	CacheRestored  uint64 `json:"cache_restored"`

	// Solves.
	Solves        uint64 `json:"solves"`
	SolveErrors   uint64 `json:"solve_errors"`
	QueueRejected uint64 `json:"queue_rejected"`

	// Latency over completed solves (cache hits excluded). Percentiles
	// are estimated from the fixed-bucket histogram backing the
	// Prometheus exposition.
	SolveLatencyMeanMS float64 `json:"solve_latency_mean_ms"`
	SolveLatencyP50MS  float64 `json:"solve_latency_p50_ms"`
	SolveLatencyP90MS  float64 `json:"solve_latency_p90_ms"`
	SolveLatencyP99MS  float64 `json:"solve_latency_p99_ms"`
	SolveLatencyMaxMS  float64 `json:"solve_latency_max_ms"`
	SolveLatencyLastMS float64 `json:"solve_latency_last_ms"`

	// Sweep jobs.
	JobsActive int `json:"jobs_active"`
	JobsDone   int `json:"jobs_done"`

	// Sweep warm-start chains. A chain is a run of grid-adjacent sweep
	// points sharing one flow, executed sequentially
	// on one cached solver stack; a warm point is a chain solve seeded
	// by an earlier point's converged state, a cold point paid the full
	// setup. WarmPoints/(WarmPoints+ColdPoints) is the chaining hit rate.
	SweepChains     uint64 `json:"sweep_chains"`
	SweepPointsWarm uint64 `json:"sweep_points_warm"`
	SweepPointsCold uint64 `json:"sweep_points_cold"`

	// Retired sweep-scheduling fields, kept only because the benchmark
	// harness still reads them: a chain is never split, so Segments
	// mirrors Chains and Steals always reads 0. Both go with the
	// benchmark's next revision (ROADMAP item 1).
	SweepSegments uint64 `json:"sweep_segments"`
	SweepSteals   uint64 `json:"sweep_steals"`

	// Sweep chain prefetches: multi-point chains handed to the chain
	// solver's prefetch before the walk, by outcome (the default
	// core.Batch prefetch only checks the points and the context). A
	// failed prefetch costs nothing — the chain's points still solve in
	// the sequential walk.
	SweepPrefetches     uint64 `json:"sweep_prefetches"`
	SweepPrefetchErrors uint64 `json:"sweep_prefetch_errors"`
}

// metrics holds the engine's mutable counters, backed by obs
// instruments so the same numbers serve /v1/stats and /metrics. Max and
// last latency are not expressible as histogram samples, so they keep a
// small mutex of their own.
type metrics struct {
	busyWorkers atomic.Int64

	solves              *obs.Counter
	solveErrors         *obs.Counter
	queueRejected       *obs.Counter
	solveLatency        *obs.Histogram
	sweepChains         *obs.Counter
	sweepPointsWarm     *obs.Counter
	sweepPointsCold     *obs.Counter
	sweepPrefetches     *obs.Counter
	sweepPrefetchErrors *obs.Counter

	mu          sync.Mutex
	latencyMax  time.Duration
	latencyLast time.Duration
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		solves: reg.Counter("bright_solves_total",
			"Completed solver invocations (cache hits excluded)."),
		solveErrors: reg.Counter("bright_solve_errors_total",
			"Solver invocations that returned an error (including cancellations)."),
		queueRejected: reg.Counter("bright_queue_rejected_total",
			"Evaluate requests shed with ErrQueueFull backpressure."),
		solveLatency: reg.Histogram("bright_solve_duration_seconds",
			"Wall-clock latency of one solver invocation.", obs.DefLatencyBuckets),
		sweepChains: reg.Counter("bright_sweep_chains_total",
			"Sweep warm-start chains executed (runs of points sharing one flow)."),
		sweepPointsWarm: reg.Counter("bright_sweep_points_total",
			"Sweep points solved inside a chain, by warm-start state.", obs.L("warm", "true")),
		sweepPointsCold: reg.Counter("bright_sweep_points_total",
			"Sweep points solved inside a chain, by warm-start state.", obs.L("warm", "false")),
		sweepPrefetches: reg.Counter("bright_sweep_chain_prefetches_total",
			"Sweep chains whose upfront chain prefetch succeeded.", obs.L("ok", "true")),
		sweepPrefetchErrors: reg.Counter("bright_sweep_chain_prefetches_total",
			"Sweep chains whose upfront chain prefetch succeeded.", obs.L("ok", "false")),
	}
}

func (m *metrics) recordSolve(d time.Duration, err error) {
	m.solves.Inc()
	if err != nil {
		m.solveErrors.Inc()
	}
	m.solveLatency.Observe(d.Seconds())
	m.mu.Lock()
	m.latencyLast = d
	if d > m.latencyMax {
		m.latencyMax = d
	}
	m.mu.Unlock()
}

func (m *metrics) latencySnapshot() (meanMS, p50MS, p90MS, p99MS, maxMS, lastMS float64) {
	const sToMS = 1e3
	if n := m.solveLatency.Count(); n > 0 {
		meanMS = m.solveLatency.Sum() / float64(n) * sToMS
		p50MS = m.solveLatency.Quantile(0.50) * sToMS
		p90MS = m.solveLatency.Quantile(0.90) * sToMS
		p99MS = m.solveLatency.Quantile(0.99) * sToMS
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	toMS := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return meanMS, p50MS, p90MS, p99MS, toMS(m.latencyMax), toMS(m.latencyLast)
}

// registerGauges publishes the engine's sampled-at-scrape-time state
// (queue occupancy, pool utilization, cache size, job counts) into its
// registry. Called once from New, after every field the callbacks read
// is in place.
func (e *Engine) registerGauges() {
	reg := e.reg
	reg.GaugeFunc("bright_workers",
		"Fixed worker-pool size.", func() float64 { return float64(e.opts.Workers) })
	reg.GaugeFunc("bright_workers_busy",
		"Workers currently running a solve.", func() float64 { return float64(e.m.busyWorkers.Load()) })
	reg.GaugeFunc("bright_queue_depth",
		"Jobs waiting on the bounded queue.", func() float64 { return float64(len(e.queue)) })
	reg.GaugeFunc("bright_queue_capacity",
		"Bounded queue capacity.", func() float64 { return float64(cap(e.queue)) })
	reg.GaugeFunc("bright_cache_enabled",
		"1 when the memoization cache is enabled, 0 when disabled.", func() float64 {
			if e.cache.enabled() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("bright_cache_entries",
		"Reports currently held by the memoization cache.", func() float64 { return float64(e.cache.Len()) })
	reg.CounterFunc("bright_cache_hits_total",
		"Memoization cache hits.", func() uint64 { h, _, _ := e.cache.Counters(); return h })
	reg.CounterFunc("bright_cache_misses_total",
		"Memoization cache misses.", func() uint64 { _, m, _ := e.cache.Counters(); return m })
	reg.CounterFunc("bright_cache_evictions_total",
		"Reports evicted from the memoization cache.", func() uint64 { _, _, ev := e.cache.Counters(); return ev })
	reg.CounterFunc("bright_cache_refreshes_total",
		"Cache inserts that overwrote an existing entry.", func() uint64 { r, _ := e.cache.RefreshCounters(); return r })
	reg.CounterFunc("bright_cache_restored_total",
		"Cache entries merged in from an uploaded snapshot (warm rejoin).", func() uint64 { _, r := e.cache.RefreshCounters(); return r })
	reg.GaugeFunc("bright_jobs_active",
		"Sweep jobs currently running.", func() float64 { a, _ := e.jobs.counts(); return float64(a) })
	reg.GaugeFunc("bright_jobs_done",
		"Sweep jobs finished (done, failed or canceled).", func() float64 { _, d := e.jobs.counts(); return float64(d) })
}
