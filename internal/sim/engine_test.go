package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bright/internal/core"
	"bright/internal/cosim"
	"bright/internal/flowcell"
	"bright/internal/hydro"
	"bright/internal/pdn"
	"bright/internal/thermal"
)

// fakeReport builds a structurally complete report (every pointer the
// view/summary layer dereferences is non-nil) without running solvers.
func fakeReport(cfg core.Config) *core.Report {
	return &core.Report{
		Config: cfg,
		CoSim: &cosim.Result{
			Iterations: 3,
			Converged:  true,
			Operating:  flowcell.OperatingPoint{Current: 6.3, Voltage: cfg.SupplyVoltage, Power: 6.3 * cfg.SupplyVoltage},
			Thermal:    &thermal.Solution{PeakT: 311.4, OutletT: 301.4},
		},
		CacheDemandW:       2.2,
		CacheDemandA:       2.2,
		DeliveredW:         5.4,
		PowersCaches:       true,
		Grid:               &pdn.Solution{MinVCache: 0.962},
		Thermal:            &thermal.Solution{PeakT: 311.4, OutletT: 301.4},
		PeakTempC:          38.3,
		Hydraulics:         hydro.Report{TotalDrop: 41300, PressureGradient: 1.9e6, PumpPower: 0.93},
		NetElectricalGainW: 4.5,
	}
}

// countingSolver counts invocations. When block is non-nil, solves wait
// on it (release by closing it or canceling their context); blockN > 0
// restricts the blocking to the first blockN invocations. Both fields
// are set at construction and never mutated, so tests stay race-free.
type countingSolver struct {
	calls  atomic.Int64
	block  chan struct{}
	blockN int64 // 0 = block every call (while block is open)
	err    error
}

func (s *countingSolver) solve(ctx context.Context, cfg core.Config) (*core.Report, error) {
	n := s.calls.Add(1)
	if s.block != nil && (s.blockN == 0 || n <= s.blockN) {
		select {
		case <-s.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return fakeReport(cfg), nil
}

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	})
	return e
}

// TestSingleFlight64 is the issue's acceptance test: 64 concurrent
// identical requests must trigger exactly one underlying solve.
func TestSingleFlight64(t *testing.T) {
	s := &countingSolver{block: make(chan struct{})}
	e := newTestEngine(t, Options{Workers: 4, QueueDepth: 8, Solver: s.solve})

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for k := 0; k < n; k++ {
		go func(k int) {
			defer wg.Done()
			_, errs[k] = e.Evaluate(context.Background(), core.DefaultConfig())
		}(k)
	}
	// Give every goroutine time to reach the flight group, then release
	// the (single) solve.
	time.Sleep(100 * time.Millisecond)
	close(s.block)
	wg.Wait()

	for k, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
	if got := s.calls.Load(); got != 1 {
		t.Fatalf("64 identical requests caused %d solves, want exactly 1", got)
	}
	st := e.Stats()
	if st.Solves != 1 {
		t.Errorf("stats solves = %d, want 1", st.Solves)
	}
}

func TestDistinctConfigsSolveSeparately(t *testing.T) {
	s := &countingSolver{}
	e := newTestEngine(t, Options{Workers: 2, Solver: s.solve})
	for _, flow := range []float64{100, 200, 300} {
		cfg := core.DefaultConfig()
		cfg.FlowMLMin = flow
		if _, err := e.Evaluate(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.calls.Load(); got != 3 {
		t.Fatalf("3 distinct configs caused %d solves, want 3", got)
	}
}

func TestCacheHitSkipsSolver(t *testing.T) {
	s := &countingSolver{}
	e := newTestEngine(t, Options{Workers: 2, Solver: s.solve})
	cfg := core.DefaultConfig()
	for k := 0; k < 5; k++ {
		if _, err := e.Evaluate(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.calls.Load(); got != 1 {
		t.Fatalf("repeated requests caused %d solves, want 1 (cache)", got)
	}
	st := e.Stats()
	if st.CacheHits != 4 || st.CacheHitRate <= 0 {
		t.Errorf("stats: hits=%d rate=%g, want 4 hits and a positive rate", st.CacheHits, st.CacheHitRate)
	}
}

// TestQueueFullBackpressure fills the pool and the queue with blocked
// solves and asserts the next distinct request is rejected, not blocked.
func TestQueueFullBackpressure(t *testing.T) {
	s := &countingSolver{block: make(chan struct{})}
	e := newTestEngine(t, Options{Workers: 1, QueueDepth: 2, Solver: s.solve})

	submit := func(flow float64) chan error {
		cfg := core.DefaultConfig()
		cfg.FlowMLMin = flow
		done := make(chan error, 1)
		go func() {
			_, err := e.Evaluate(context.Background(), cfg)
			done <- err
		}()
		return done
	}
	// 1 running + 2 queued fill the engine. The worker must hold the
	// first task before the other two arrive: submitted together, all
	// three can reach the queue first and the third is rejected early.
	waitFor := func(cond func() bool) {
		deadline := time.Now().Add(2 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("engine never saturated: depth=%d calls=%d", len(e.queue), s.calls.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	pending := []chan error{submit(101)}
	waitFor(func() bool { return s.calls.Load() == 1 })
	pending = append(pending, submit(102), submit(103))
	waitFor(func() bool { return len(e.queue) == 2 })

	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 104
	_, err := e.Evaluate(context.Background(), cfg)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated engine returned %v, want ErrQueueFull", err)
	}
	if st := e.Stats(); st.QueueRejected != 1 {
		t.Errorf("stats rejected = %d, want 1", st.QueueRejected)
	}
	// The rejected key must not be stranded in the flight map: once the
	// engine drains, the same config must be solvable (the closed block
	// channel releases every later solve immediately).
	close(s.block)
	for _, p := range pending {
		if err := <-p; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Evaluate(context.Background(), cfg); err != nil {
		t.Fatalf("post-backpressure request failed: %v", err)
	}
}

// TestCancellationDoesNotPoisonCache cancels a request mid-solve and
// asserts (a) the caller gets context.Canceled, (b) the result is not
// cached, and (c) a fresh request re-solves successfully.
func TestCancellationDoesNotPoisonCache(t *testing.T) {
	s := &countingSolver{block: make(chan struct{}), blockN: 1}
	e := newTestEngine(t, Options{Workers: 1, Solver: s.solve})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Evaluate(ctx, core.DefaultConfig())
		done <- err
	}()
	// Let the solve start, then cancel the submitter.
	deadline := time.Now().Add(2 * time.Second)
	for s.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v, want context.Canceled", err)
	}

	// Re-request: the cache must miss (no poisoned entry) and the solver
	// must run again (only the first call blocks, by blockN).
	if _, err := e.Evaluate(context.Background(), core.DefaultConfig()); err != nil {
		t.Fatalf("re-request after cancellation failed: %v", err)
	}
	if got := s.calls.Load(); got != 2 {
		t.Fatalf("solver ran %d times, want 2 (canceled + fresh)", got)
	}
}

// TestFollowerSurvivesLeaderCancel: a follower with a live context joins
// a flight whose leader cancels; the follower must transparently retry
// and get a result rather than inherit context.Canceled.
func TestFollowerSurvivesLeaderCancel(t *testing.T) {
	s := &countingSolver{block: make(chan struct{}), blockN: 1}
	e := newTestEngine(t, Options{Workers: 1, Solver: s.solve})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Evaluate(leaderCtx, core.DefaultConfig())
		leaderDone <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	followerDone := make(chan error, 1)
	go func() {
		_, err := e.Evaluate(context.Background(), core.DefaultConfig())
		followerDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	// The follower's retry becomes the new leader; its solve (call 2) is
	// past blockN and completes without external release.
	select {
	case err := <-followerDone:
		if err != nil {
			t.Fatalf("follower got %v, want success via retry", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never completed")
	}
}

// TestManyFollowersSurviveLeaderCancel is the regression pin for the
// flight-group poisoning bug: one leader whose context dies mid-solve
// must not fail the N followers whose contexts are live. Every follower
// re-runs the lookup, exactly one of them is re-elected leader for the
// fresh solve, and all N receive the result.
func TestManyFollowersSurviveLeaderCancel(t *testing.T) {
	const followers = 8
	s := &countingSolver{block: make(chan struct{}), blockN: 1}
	e := newTestEngine(t, Options{Workers: 2, Solver: s.solve})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Evaluate(leaderCtx, core.DefaultConfig())
		leaderDone <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	followerDone := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() {
			_, err := e.Evaluate(context.Background(), core.DefaultConfig())
			followerDone <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the followers join the flight
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	for i := 0; i < followers; i++ {
		select {
		case err := <-followerDone:
			if err != nil {
				t.Fatalf("follower %d inherited the leader's cancellation: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("follower %d never completed", i)
		}
	}
	// The canceled solve plus exactly one re-elected leader's solve: the
	// retry must coalesce the followers, not fan out N fresh solves.
	if got := s.calls.Load(); got != 2 {
		t.Fatalf("solver ran %d times, want 2 (canceled leader + one re-elected)", got)
	}
}

func TestSolverErrorPropagatesAndIsNotCached(t *testing.T) {
	s := &countingSolver{err: fmt.Errorf("solver exploded")}
	e := newTestEngine(t, Options{Workers: 1, Solver: s.solve})
	if _, err := e.Evaluate(context.Background(), core.DefaultConfig()); err == nil {
		t.Fatal("expected solver error")
	}
	if _, err := e.Evaluate(context.Background(), core.DefaultConfig()); err == nil {
		t.Fatal("expected solver error on retry")
	}
	if got := s.calls.Load(); got != 2 {
		t.Fatalf("failed solve was cached: %d calls, want 2", got)
	}
	if st := e.Stats(); st.SolveErrors != 2 {
		t.Errorf("stats errors = %d, want 2", st.SolveErrors)
	}
}

func TestInvalidConfigRejectedBeforeQueue(t *testing.T) {
	s := &countingSolver{}
	e := newTestEngine(t, Options{Workers: 1, Solver: s.solve})
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = -1
	if _, err := e.Evaluate(context.Background(), cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	if s.calls.Load() != 0 {
		t.Fatal("invalid config reached the solver")
	}
}

func TestShutdownDrainsInFlightWork(t *testing.T) {
	s := &countingSolver{block: make(chan struct{})}
	e := New(Options{Workers: 2, QueueDepth: 8, Solver: s.solve})

	results := make(chan error, 3)
	for _, flow := range []float64{111, 222, 333} {
		cfg := core.DefaultConfig()
		cfg.FlowMLMin = flow
		go func() {
			_, err := e.Evaluate(context.Background(), cfg)
			results <- err
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never picked up tasks")
		}
		time.Sleep(time.Millisecond)
	}
	// Release the solves and shut down: every submitted job must still
	// complete successfully (drain semantics).
	close(s.block)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for k := 0; k < 3; k++ {
		if err := <-results; err != nil {
			t.Fatalf("drained job %d failed: %v", k, err)
		}
	}
	// After shutdown, new work is refused.
	if _, err := e.Evaluate(context.Background(), core.DefaultConfig()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown evaluate returned %v, want ErrClosed", err)
	}
	// Shutdown is idempotent.
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRealSolverEndToEnd runs one genuine evaluation through the engine
// and checks the headline band — the engine must not perturb physics.
func TestRealSolverEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-simulation in -short mode")
	}
	e := newTestEngine(t, Options{Workers: 1})
	rep, err := e.Evaluate(context.Background(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CoSim.Operating.Current < 5.0 || rep.CoSim.Operating.Current > 7.5 {
		t.Fatalf("engine-served current %.2f A outside Fig. 7 band", rep.CoSim.Operating.Current)
	}
	// Second request is a cache hit returning the identical report.
	rep2, err := e.Evaluate(context.Background(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep2 != rep {
		t.Fatal("cache hit returned a different report pointer")
	}
}
