// Package sim is the concurrent job-execution layer over the bright
// system model: a fixed-size worker pool with a bounded queue (explicit
// backpressure instead of blocking), a canonical-key memoizing LRU cache
// with single-flight deduplication, batched parameter sweeps that fan
// out across the pool, and context-aware cancellation threaded into the
// iterative solvers. It is the engine behind the brightd daemon and the
// substrate for design-space exploration workloads, which are
// embarrassingly parallel grids over (flow, inlet temperature, rail
// voltage, load).
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bright/internal/core"
	"bright/internal/num"
	"bright/internal/obs"
)

// ErrQueueFull is returned by Evaluate when the bounded job queue is at
// capacity — the backpressure signal. Callers should shed load or retry
// later; the engine never blocks a submitter on a full queue.
var ErrQueueFull = errors.New("sim: job queue full")

// ErrClosed is returned by Evaluate and SubmitSweep after Shutdown.
var ErrClosed = errors.New("sim: engine closed")

// Solver computes the full system report for one configuration. The
// production solver builds a core.System and runs EvaluateContext; tests
// and benchmarks inject counting or synthetic solvers.
type Solver func(ctx context.Context, cfg core.Config) (*core.Report, error)

// ChainPrefetch receives a sweep chain's complete point list before the
// chain's sequential walk, letting a stateful chain solver presolve
// whatever the points' known-upfront inputs allow (batched multi-RHS
// PDN solves in the production path).
type ChainPrefetch func(ctx context.Context, cfgs []core.Config) error

// DefaultSolver is the production path: core.NewSystem + EvaluateContext.
func DefaultSolver(ctx context.Context, cfg core.Config) (*core.Report, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return sys.EvaluateContext(ctx)
}

// Options configures a new Engine. The zero value gives NumCPU workers,
// a 64-deep queue, a 256-entry cache and the production solver.
type Options struct {
	// Workers is the fixed worker-pool size (default runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the pending-job queue; a full queue makes
	// Evaluate return ErrQueueFull (default 64).
	QueueDepth int
	// CacheSize bounds the memoization LRU in entries (default 256;
	// negative disables caching).
	CacheSize int
	// KernelThreads caps the goroutines the numeric kernels (SpMV, dot,
	// axpy) fork per operation; 0 keeps the current process-wide setting
	// (which defaults to GOMAXPROCS). The setting is process-wide — the
	// kernels are shared by every solver in the process — so the last
	// engine created wins. Deployments running one engine per process
	// (brightd) set it from the BRIGHT_NUM_THREADS environment or the
	// -kernel-threads flag.
	KernelThreads int
	// Solver overrides the production solver (tests, benchmarks).
	Solver Solver
	// BatchChain builds a fresh stateful solver for one sweep segment —
	// a run of grid-adjacent points sharing the hydrodynamic condition,
	// executed sequentially so each point warm-starts from its
	// neighbor's converged state — plus a ChainPrefetch that SubmitSweep
	// hands the segment's full point list before the sequential walk
	// begins, so the solver can batch work whose inputs are known upfront
	// (the default core.NewBatch prefetch block-solves the segment's PDN
	// grid points in one multi-RHS Krylov run). A nil prefetch is valid.
	// Prefetch errors are counted and otherwise ignored — every point
	// still solves correctly, just without the batched head start. The
	// default wraps core.NewBatch (one thermal session per condition, one
	// PDN session per segment); when Solver is overridden and BatchChain
	// is not, segments reuse the overridden Solver (stateless, no warm
	// carry).
	BatchChain func() (Solver, ChainPrefetch)
	// Metrics is the registry the engine publishes its serving metrics
	// into; nil gives the engine a private registry (reachable via
	// Engine.Metrics). One engine per registry: the gauge callbacks are
	// bound to the engine that registered first.
	Metrics *obs.Registry

	// segment overrides the sweep segment bound (maxSegmentPoints) for
	// in-package tests: positive splits chains at that bound, negative
	// disables splitting.
	segment int
}

// maxSegmentPoints bounds the points one stealable sweep segment carries:
// chains longer than the bound split (preferentially at supply-voltage
// boundaries) so a skewed grid cannot serialize a sweep behind one
// goroutine. The bound trades steal granularity against warm-start
// carry — each segment's first point re-warms its solver stack cold.
const maxSegmentPoints = 16

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.segment == 0 {
		o.segment = maxSegmentPoints
	}
	if o.Solver == nil {
		o.Solver = DefaultSolver
		if o.BatchChain == nil {
			o.BatchChain = func() (Solver, ChainPrefetch) {
				b := core.NewBatch()
				return b.EvaluateContext, b.PrefetchChain
			}
		}
	}
	if o.BatchChain == nil {
		s := o.Solver
		o.BatchChain = func() (Solver, ChainPrefetch) { return s, nil }
	}
	return o
}

// task is one unit of work on the queue: solve cfg under ctx and
// complete the flight call with the result.
type task struct {
	ctx  context.Context
	cfg  core.Config
	key  string
	call *flightCall
}

// Engine is the concurrent evaluation service. Create with New, submit
// with Evaluate / SubmitSweep, observe with Stats, stop with Shutdown.
type Engine struct {
	opts   Options
	queue  chan *task
	cache  *lruCache
	flight *flightGroup
	reg    *obs.Registry
	m      *metrics
	jobs   *jobRegistry

	workerWG sync.WaitGroup
	sweepWG  sync.WaitGroup

	// closeMu guards the closed flag and queue sends: Evaluate sends
	// while holding it read-locked, Shutdown closes the queue while
	// holding it write-locked, so no send can race the close.
	closeMu sync.RWMutex
	closed  bool
}

// New builds and starts an engine: the worker pool is running on return.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	if opts.KernelThreads > 0 {
		num.SetKernelThreads(opts.KernelThreads)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		opts:   opts,
		queue:  make(chan *task, opts.QueueDepth),
		cache:  newLRUCache(opts.CacheSize),
		flight: newFlightGroup(),
		reg:    reg,
		m:      newMetrics(reg),
		jobs:   newJobRegistry(),
	}
	e.registerGauges()
	e.workerWG.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go e.worker()
	}
	return e
}

func (e *Engine) worker() {
	defer e.workerWG.Done()
	for t := range e.queue {
		e.m.busyWorkers.Add(1)
		e.solve(t, e.opts.Solver)
		e.m.busyWorkers.Add(-1)
	}
}

// solve runs a flight leader's task on solver and publishes the result:
// cached on success, then handed to every follower.
func (e *Engine) solve(t *task, solver Solver) {
	start := time.Now()
	rep, err := solver(t.ctx, t.cfg)
	e.m.recordSolve(time.Since(start), err)
	if err == nil {
		e.cache.Add(t.key, rep)
	}
	e.flight.complete(t.key, t.call, rep, err)
}

// enqueue places a task on the bounded queue; a full queue returns
// ErrQueueFull immediately (backpressure) instead of blocking.
func (e *Engine) enqueue(t *task) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	select {
	case e.queue <- t:
		return nil
	default:
		e.m.queueRejected.Add(1)
		return ErrQueueFull
	}
}

// Evaluate solves one configuration through the cache, single-flight
// layer and worker pool. Identical concurrent requests (same canonical
// key) trigger exactly one underlying solve; a full queue returns
// ErrQueueFull; ctx cancels the caller's wait and, when the caller is
// the flight leader, the solve itself (at solver iteration boundaries).
// Failed or canceled solves are never cached.
func (e *Engine) Evaluate(ctx context.Context, cfg core.Config) (*core.Report, error) {
	rep, _, err := e.evaluate(ctx, cfg, e.enqueue)
	return rep, err
}

// evaluate is the one cache + single-flight lookup behind Evaluate and
// the sweep segments. The flight leader hands its task to lead, which
// either enqueues it to the worker pool (Evaluate) or solves it inline on
// a sweep segment's stateful solver, so consecutive points reuse one warm
// solver stack. Either way the task's solve completes the flight, and
// the leader then waits on it like any follower. solved reports whether
// this call led a solve (no cache hit), which is what the warm/cold
// chain metrics count.
func (e *Engine) evaluate(ctx context.Context, cfg core.Config, lead func(*task) error) (rep *core.Report, solved bool, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	key := cfg.CanonicalKey()
	for {
		if rep, ok := e.cache.Get(key); ok {
			return rep, false, nil
		}
		call, leader := e.flight.join(key)
		if leader {
			// The previous leader may have cached the report and left the
			// flight between the Get above and the join; without this
			// re-check the key would solve twice. The miss is already
			// counted, so the re-check does not count again.
			if rep, ok := e.cache.peek(key); ok {
				e.flight.complete(key, call, rep, nil)
				return rep, false, nil
			}
			if err := lead(&task{ctx: ctx, cfg: cfg, key: key, call: call}); err != nil {
				e.flight.forget(key, call, err)
				return nil, false, err
			}
		}
		select {
		case <-call.done:
		case <-ctx.Done():
			select {
			case <-call.done: // an inline leader has already published
			default:
				// The caller gives up waiting. The solve (if this caller
				// led it) sees the same context and aborts at its next
				// iteration boundary; followers keep waiting on their own
				// contexts.
				return nil, leader, ctx.Err()
			}
		}
		if call.err == nil {
			return call.rep, leader, nil
		}
		// A follower whose own context is still live should not be
		// penalized for the leader's cancellation: retry the whole lookup
		// and elect a new leader (the cache was not poisoned, so this
		// re-solves). The flight group classified the completion, so every
		// wait path applies the same rule.
		if !leader && ctx.Err() == nil && call.leaderCanceled {
			continue
		}
		return nil, leader, call.err
	}
}

// Metrics returns the registry holding the engine's serving metrics,
// for exposition (the /metrics endpoint renders it).
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// CacheSnapshot dumps the report LRU for transfer (GET
// /v1/cache/snapshot). Reports are shared by pointer with the live
// cache; they are immutable once published, so serializing the snapshot
// concurrently with serving is safe.
func (e *Engine) CacheSnapshot() CacheSnapshot {
	return e.cache.Snapshot()
}

// RestoreCacheSnapshot merges a snapshot into the report LRU (PUT
// /v1/cache/snapshot) — the warm-rejoin path for a restarted shard.
// Entries that fail the key self-check are skipped, the local capacity
// bounds what sticks, and an unknown snapshot version is an error.
func (e *Engine) RestoreCacheSnapshot(s CacheSnapshot) (restored, skipped int, err error) {
	return e.cache.RestoreSnapshot(s)
}

// Stats snapshots the engine's serving metrics.
func (e *Engine) Stats() Stats {
	hits, misses, evictions := e.cache.Counters()
	var hitRate float64
	if total := hits + misses; total > 0 {
		hitRate = float64(hits) / float64(total)
	}
	cacheCap := e.opts.CacheSize
	if !e.cache.enabled() {
		cacheCap = 0
	}
	refreshes, restored := e.cache.RefreshCounters()
	meanMS, p50MS, p90MS, p99MS, maxMS, lastMS := e.m.latencySnapshot()
	active, done := e.jobs.counts()
	return Stats{
		Workers:             e.opts.Workers,
		BusyWorkers:         int(e.m.busyWorkers.Load()),
		QueueDepth:          len(e.queue),
		QueueCapacity:       cap(e.queue),
		CacheEnabled:        e.cache.enabled(),
		CacheHits:           hits,
		CacheMisses:         misses,
		CacheEvictions:      evictions,
		CacheHitRate:        hitRate,
		CacheSize:           e.cache.Len(),
		CacheCapacity:       cacheCap,
		CacheRefreshes:      refreshes,
		CacheRestored:       restored,
		Solves:              e.m.solves.Value(),
		SolveErrors:         e.m.solveErrors.Value(),
		QueueRejected:       e.m.queueRejected.Value(),
		SolveLatencyMeanMS:  meanMS,
		SolveLatencyP50MS:   p50MS,
		SolveLatencyP90MS:   p90MS,
		SolveLatencyP99MS:   p99MS,
		SolveLatencyMaxMS:   maxMS,
		SolveLatencyLastMS:  lastMS,
		JobsActive:          active,
		JobsDone:            done,
		SweepChains:         e.m.sweepChains.Value(),
		SweepSegments:       e.m.sweepSegments.Value(),
		SweepSteals:         e.m.sweepSteals.Value(),
		SweepPointsWarm:     e.m.sweepPointsWarm.Value(),
		SweepPointsCold:     e.m.sweepPointsCold.Value(),
		SweepPrefetches:     e.m.sweepPrefetches.Value(),
		SweepPrefetchErrors: e.m.sweepPrefetchErrors.Value(),
		KernelThreads:       num.KernelThreads(),
	}
}

// Shutdown stops accepting new work, drains queued and in-flight jobs,
// and waits for the workers to exit; ctx bounds the drain (on timeout
// the workers keep finishing in the background, but Shutdown returns
// ctx's error). Shutdown is idempotent.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.closeMu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.closeMu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.workerWG.Wait()
		e.sweepWG.Wait() // sweep chains solve outside the worker pool
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sim: shutdown drain: %w", ctx.Err())
	}
}
