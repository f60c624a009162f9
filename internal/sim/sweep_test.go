package sim

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bright/internal/core"
	"bright/internal/obs"
)

var errSolverBoom = errors.New("synthetic solver failure")

func TestSweepGridExpansion(t *testing.T) {
	spec := SweepSpec{
		FlowsMLMin:  []float64{100, 676},
		InletTempsC: []float64{27, 37, 47},
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 6 {
		t.Fatalf("grid has %d points, want 2*3=6", len(grid))
	}
	// Unswept axes keep the base (default) values.
	def := core.DefaultConfig()
	for k, cfg := range grid {
		if cfg.SupplyVoltage != def.SupplyVoltage || cfg.PumpEfficiency != def.PumpEfficiency {
			t.Fatalf("point %d lost base values: %+v", k, cfg)
		}
	}
	// Row-major: flow outermost.
	if grid[0].FlowMLMin != 100 || grid[3].FlowMLMin != 676 {
		t.Fatalf("unexpected axis order: %+v", grid)
	}
}

// TestSweepGridRowMajorOrder pins the exact expansion order of Grid():
// flow outermost, then inlet temperature, then supply voltage, with
// chip load innermost. Chains and the batch solver's session reuse
// both depend on this ordering, so it is a golden test — any change to
// the nesting must update this table deliberately.
func TestSweepGridRowMajorOrder(t *testing.T) {
	spec := SweepSpec{
		FlowsMLMin:     []float64{100, 676},
		InletTempsC:    []float64{27, 47},
		SupplyVoltages: []float64{0.9, 1.0},
		ChipLoads:      []float64{0.5, 1.0},
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	want := [][4]float64{ // {flow, inlet, voltage, load}
		{100, 27, 0.9, 0.5}, {100, 27, 0.9, 1.0}, {100, 27, 1.0, 0.5}, {100, 27, 1.0, 1.0},
		{100, 47, 0.9, 0.5}, {100, 47, 0.9, 1.0}, {100, 47, 1.0, 0.5}, {100, 47, 1.0, 1.0},
		{676, 27, 0.9, 0.5}, {676, 27, 0.9, 1.0}, {676, 27, 1.0, 0.5}, {676, 27, 1.0, 1.0},
		{676, 47, 0.9, 0.5}, {676, 47, 0.9, 1.0}, {676, 47, 1.0, 0.5}, {676, 47, 1.0, 1.0},
	}
	if len(grid) != len(want) {
		t.Fatalf("grid has %d points, want %d", len(grid), len(want))
	}
	for k, w := range want {
		got := [4]float64{grid[k].FlowMLMin, grid[k].InletTempC, grid[k].SupplyVoltage, grid[k].ChipLoad}
		if got != w {
			t.Fatalf("point %d = %v, want %v (row-major order broken)", k, got, w)
		}
	}
}

// TestChainGrid: the 2x2x2x2 grid above must split (SweepSpec.Chains)
// into 2 chains of 8 — one per flow, each carrying its inlet x voltage
// x load sub-grid, in grid order — whose grids, concatenated, are
// exactly the full grid.
func TestChainGrid(t *testing.T) {
	spec := SweepSpec{
		FlowsMLMin:     []float64{100, 676},
		InletTempsC:    []float64{27, 47},
		SupplyVoltages: []float64{0.9, 1.0},
		ChipLoads:      []float64{0.5, 1.0},
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	chains := spec.Chains()
	if len(chains) != 2 {
		t.Fatalf("got %d chains, want 2 (one per flow)", len(chains))
	}
	next := 0
	for c, chain := range chains {
		pts, err := chain.Grid()
		if err != nil {
			t.Fatalf("chain %d: %v", c, err)
		}
		if len(pts) != 8 {
			t.Fatalf("chain %d has %d points, want 8", c, len(pts))
		}
		for _, cfg := range pts {
			if cfg != grid[next] {
				t.Fatalf("chain %d: point %+v, want grid[%d] %+v (chains must cover the grid in order)", c, cfg, next, grid[next])
			}
			if cfg.FlowMLMin != pts[0].FlowMLMin {
				t.Fatalf("chain %d mixes flows: %+v", c, cfg)
			}
			next++
		}
	}
	if next != len(grid) {
		t.Fatalf("chains cover %d points, want %d", next, len(grid))
	}
}

func TestSweepGridCustomBase(t *testing.T) {
	base := core.DefaultConfig()
	base.PumpEfficiency = 0.7
	spec := SweepSpec{Base: &base, ChipLoads: []float64{0.5, 1.0}}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || grid[0].PumpEfficiency != 0.7 {
		t.Fatalf("base override lost: %+v", grid)
	}
}

func TestSweepGridRejectsOversizeAndInvalid(t *testing.T) {
	big := make([]float64, 100)
	for k := range big {
		big[k] = float64(k + 1)
	}
	if _, err := (SweepSpec{FlowsMLMin: big, InletTempsC: big[:50]}).Grid(); err == nil {
		t.Fatal("5000-point grid accepted beyond MaxSweepPoints")
	}
	if _, err := (SweepSpec{FlowsMLMin: []float64{-5}}).Grid(); err == nil {
		t.Fatal("invalid sweep point accepted")
	}
}

func waitJob(t *testing.T, j *Job, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := j.Snapshot()
		if v.State != JobRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v (%d/%d)", v.ID, v.State, timeout, v.Completed, v.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSweepJobCompletesAllPoints(t *testing.T) {
	s := &countingSolver{}
	e := newTestEngine(t, Options{Workers: 4, QueueDepth: 8, Solver: s.solve})
	job, err := e.SubmitSweep(context.Background(), SweepSpec{
		FlowsMLMin:  []float64{100, 300, 676},
		InletTempsC: []float64{27, 37},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, job, 10*time.Second)
	if v.State != JobDone {
		t.Fatalf("job state %s, want done", v.State)
	}
	if v.Completed != 6 || len(v.Results) != 6 || v.Failed != 0 {
		t.Fatalf("completed=%d results=%d failed=%d, want 6/6/0", v.Completed, len(v.Results), v.Failed)
	}
	// Every grid index appears exactly once.
	seen := make(map[int]bool)
	for _, r := range v.Results {
		if r.Report == nil || r.Error != "" {
			t.Fatalf("point %d: %+v", r.Index, r)
		}
		if seen[r.Index] {
			t.Fatalf("index %d reported twice", r.Index)
		}
		seen[r.Index] = true
	}
	if s.calls.Load() != 6 {
		t.Fatalf("solver ran %d times, want 6", s.calls.Load())
	}
}

// TestSweepSharesCacheWithEvaluate: a sweep over already-solved points
// must be served from the cache, not re-solved.
func TestSweepSharesCacheWithEvaluate(t *testing.T) {
	s := &countingSolver{}
	e := newTestEngine(t, Options{Workers: 2, Solver: s.solve})
	for _, flow := range []float64{100, 200} {
		if _, err := e.Evaluate(context.Background(), cfgWithFlow(flow)); err != nil {
			t.Fatal(err)
		}
	}
	job, err := e.SubmitSweep(context.Background(), SweepSpec{FlowsMLMin: []float64{100, 200, 300}})
	if err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, job, 10*time.Second)
	if v.State != JobDone {
		t.Fatalf("job state %s", v.State)
	}
	if got := s.calls.Load(); got != 3 { // 2 warm-up + 1 new point
		t.Fatalf("solver ran %d times, want 3 (two sweep points cached)", got)
	}
}

func TestSweepJobCancel(t *testing.T) {
	s := &countingSolver{block: make(chan struct{})}
	e := newTestEngine(t, Options{Workers: 1, QueueDepth: 4, Solver: s.solve})
	flows := make([]float64, 20)
	for k := range flows {
		flows[k] = float64(100 + k)
	}
	job, err := e.SubmitSweep(context.Background(), SweepSpec{FlowsMLMin: flows})
	if err != nil {
		t.Fatal(err)
	}
	// Let the first point start solving, then cancel the job.
	deadline := time.Now().Add(2 * time.Second)
	for s.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	v := waitJob(t, job, 10*time.Second)
	if v.State != JobCanceled {
		t.Fatalf("canceled job reports %s", v.State)
	}
	if v.Completed >= v.Total {
		t.Fatalf("cancellation did not stop the sweep: %d/%d", v.Completed, v.Total)
	}
	close(s.block)
}

func TestSweepFailedPointMarksJobFailed(t *testing.T) {
	s := &countingSolver{err: errSolverBoom}
	e := newTestEngine(t, Options{Workers: 2, Solver: s.solve})
	job, err := e.SubmitSweep(context.Background(), SweepSpec{FlowsMLMin: []float64{100, 200}})
	if err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, job, 10*time.Second)
	if v.State != JobFailed || v.Failed != 2 {
		t.Fatalf("state=%s failed=%d, want failed/2", v.State, v.Failed)
	}
}

// krylovIterations reads the process-wide Krylov iteration counters.
// Registration is idempotent, so this returns the same instruments the
// solvers in internal/num bump.
func krylovIterations() uint64 {
	cg := obs.Default.Counter("bright_krylov_iterations_total",
		"Krylov iterations spent inside SparseSolver.Solve, by method.", obs.L("method", "cg"))
	bicg := obs.Default.Counter("bright_krylov_iterations_total",
		"Krylov iterations spent inside SparseSolver.Solve, by method.", obs.L("method", "bicgstab"))
	return cg.Value() + bicg.Value()
}

// TestSweepWarmStartSavesKrylovIterations is the issue's acceptance
// test: a chained 1-D sweep (16 load points under one hydrodynamic
// condition) must spend measurably fewer total Krylov iterations than
// solving the same points independently, observed through the
// process-wide obs counters.
func TestSweepWarmStartSavesKrylovIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-simulation sweep in -short mode")
	}
	loads := make([]float64, 16)
	for k := range loads {
		loads[k] = 0.25 + 0.05*float64(k)
	}

	e := newTestEngine(t, Options{Workers: 1})
	before := krylovIterations()
	job, err := e.SubmitSweep(context.Background(), SweepSpec{ChipLoads: loads})
	if err != nil {
		t.Fatal(err)
	}
	// 16 full co-simulations: ~20 s plain, several minutes under -race.
	v := waitJob(t, job, 15*time.Minute)
	if v.State != JobDone {
		t.Fatalf("sweep job state %s, want done", v.State)
	}
	chained := krylovIterations() - before

	st := e.Stats()
	if st.SweepChains < 1 || st.SweepPointsCold < 1 || st.SweepPointsWarm < uint64(len(loads)-1) {
		t.Fatalf("chain metrics: chains=%d cold=%d warm=%d, want >=1 / >=1 / >=%d",
			st.SweepChains, st.SweepPointsCold, st.SweepPointsWarm, len(loads)-1)
	}

	before = krylovIterations()
	for _, l := range loads {
		cfg := core.DefaultConfig()
		cfg.ChipLoad = l
		if _, err := DefaultSolver(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	independent := krylovIterations() - before

	t.Logf("krylov iterations: chained=%d independent=%d", chained, independent)
	if chained >= independent {
		t.Fatalf("chained sweep spent %d Krylov iterations, independent solves spent %d — warm starts saved nothing",
			chained, independent)
	}
	// "Measurably fewer": require at least a 20% saving.
	if 5*chained > 4*independent {
		t.Fatalf("chained sweep saved only %d of %d iterations (under 20%%)", independent-chained, independent)
	}
}

// TestSweepChainPrefetchReceivesChains: SubmitSweep must hand each
// multi-point chain's complete, in-order config list to the BatchChain
// prefetch before the sequential walk starts, and count the outcome.
func TestSweepChainPrefetchReceivesChains(t *testing.T) {
	s := &countingSolver{}
	var mu sync.Mutex
	var got [][]core.Config
	e := newTestEngine(t, Options{
		Workers: 2,
		BatchChain: func() (Solver, ChainPrefetch) {
			return s.solve, func(_ context.Context, cfgs []core.Config) error {
				mu.Lock()
				got = append(got, append([]core.Config(nil), cfgs...))
				mu.Unlock()
				return nil
			}
		},
	})
	job, err := e.SubmitSweep(context.Background(), SweepSpec{
		FlowsMLMin: []float64{100, 200},
		ChipLoads:  []float64{0.5, 0.75, 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, job, 10*time.Second)
	if v.State != JobDone || v.Completed != 6 {
		t.Fatalf("state=%s completed=%d, want done/6", v.State, v.Completed)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("prefetch invoked %d times, want once per chain (2)", len(got))
	}
	for _, cfgs := range got {
		if len(cfgs) != 3 {
			t.Fatalf("prefetch received %d configs, want the chain's full 3", len(cfgs))
		}
		wantLoads := []float64{0.5, 0.75, 1.0}
		for k, cfg := range cfgs {
			if cfg.FlowMLMin != cfgs[0].FlowMLMin || cfg.ChipLoad != wantLoads[k] {
				t.Fatalf("prefetch config %d out of chain order: %+v", k, cfg)
			}
		}
	}
	if st := e.Stats(); st.SweepPrefetches != 2 || st.SweepPrefetchErrors != 0 {
		t.Fatalf("prefetch counters ok=%d err=%d, want 2/0", st.SweepPrefetches, st.SweepPrefetchErrors)
	}
}

// TestSweepChainPrefetchSkipsSinglePoints: chains of one point have
// nothing to batch, so the prefetch must not run at all.
func TestSweepChainPrefetchSkipsSinglePoints(t *testing.T) {
	s := &countingSolver{}
	var calls atomic.Int64
	e := newTestEngine(t, Options{
		Workers: 2,
		BatchChain: func() (Solver, ChainPrefetch) {
			return s.solve, func(_ context.Context, _ []core.Config) error {
				calls.Add(1)
				return nil
			}
		},
	})
	job, err := e.SubmitSweep(context.Background(), SweepSpec{FlowsMLMin: []float64{100, 200, 300}})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, job, 10*time.Second); v.State != JobDone || v.Completed != 3 {
		t.Fatalf("state=%s completed=%d, want done/3", v.State, v.Completed)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("prefetch ran %d times on single-point chains, want 0", n)
	}
}

// TestSweepChainPrefetchErrorIsSoft: a failing prefetch must not fail
// the chain — every point still solves sequentially — and the failure
// is visible in the stats.
func TestSweepChainPrefetchErrorIsSoft(t *testing.T) {
	s := &countingSolver{}
	e := newTestEngine(t, Options{
		Workers: 1,
		BatchChain: func() (Solver, ChainPrefetch) {
			return s.solve, func(_ context.Context, _ []core.Config) error {
				return errSolverBoom
			}
		},
	})
	job, err := e.SubmitSweep(context.Background(), SweepSpec{ChipLoads: []float64{0.5, 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, job, 10*time.Second)
	if v.State != JobDone || v.Completed != 2 || v.Failed != 0 {
		t.Fatalf("state=%s completed=%d failed=%d, want done/2/0 despite prefetch error", v.State, v.Completed, v.Failed)
	}
	if s.calls.Load() != 2 {
		t.Fatalf("solver ran %d times, want 2", s.calls.Load())
	}
	if st := e.Stats(); st.SweepPrefetchErrors != 1 || st.SweepPrefetches != 0 {
		t.Fatalf("prefetch counters ok=%d err=%d, want 0/1", st.SweepPrefetches, st.SweepPrefetchErrors)
	}
}

// TestSweepChainAccounting pins the warm/cold arithmetic of whole
// chains: each chain, however long, runs on one fresh chain solver, so
// it contributes exactly one cold point (its head) and len-1 warm
// points. Chains of 20 points are longer than any split bound the
// engine ever had; they must still run unsplit.
func TestSweepChainAccounting(t *testing.T) {
	s := &countingSolver{}
	e := newTestEngine(t, Options{Workers: 3, CacheSize: -1, Solver: s.solve})
	loads := make([]float64, 20)
	for i := range loads {
		loads[i] = 0.25 + 0.05*float64(i)
	}
	job, err := e.SubmitSweep(context.Background(), SweepSpec{
		FlowsMLMin: []float64{100, 200},
		ChipLoads:  loads,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, job, 30*time.Second); v.State != JobDone || v.Completed != 40 {
		t.Fatalf("state=%s completed=%d, want done/40", v.State, v.Completed)
	}
	st := e.Stats()
	if st.SweepChains != 2 || st.SweepSegments != 2 || st.SweepSteals != 0 {
		t.Fatalf("chains=%d segments=%d steals=%d, want 2/2/0", st.SweepChains, st.SweepSegments, st.SweepSteals)
	}
	if st.SweepPointsCold != 2 || st.SweepPointsWarm != 38 {
		t.Fatalf("cold=%d warm=%d, want exactly 2/38 (one cold head per chain)", st.SweepPointsCold, st.SweepPointsWarm)
	}
	if s.calls.Load() != 40 {
		t.Fatalf("solver ran %d times, want 40 (cache disabled)", s.calls.Load())
	}
}

// TestSweepScheduleInvariance is the bitwise contract: a sweep's
// per-point reports are bit-for-bit identical whether its chains run on
// one worker (one after the other) or on four (two chains at once).
// Real co-simulation solves through the production chain solver, cache
// disabled so every point solves in both runs; reports are compared
// through their canonical JSON rendering, which preserves float64 bits.
// Each run also pins the chain accounting of an inlet axis: one chain
// per flow, one cold head per chain, and two thermal unit-response
// solves per chain whatever the number of inlets.
func TestSweepScheduleInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-simulation sweep in -short mode")
	}
	spec := SweepSpec{
		FlowsMLMin:  []float64{480, 676},
		InletTempsC: []float64{27, 32, 37},
		ChipLoads:   []float64{0.4, 0.7, 1.0, 1.15},
	}
	total := len(spec.FlowsMLMin) * len(spec.InletTempsC) * len(spec.ChipLoads)
	coldSolves := obs.Default.Counter("bright_thermal_session_solves_total", "", obs.L("warm", "false"))
	run := func(workers int) map[int]string {
		e := newTestEngine(t, Options{Workers: workers, CacheSize: -1})
		c0 := coldSolves.Value()
		job, err := e.SubmitSweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		v := waitJob(t, job, 15*time.Minute)
		if v.State != JobDone || v.Completed != total {
			t.Fatalf("workers=%d: state=%s completed=%d, want done/%d", workers, v.State, v.Completed, total)
		}
		st := e.Stats()
		if st.SweepChains != 2 || st.SweepPointsCold != 2 || st.SweepPointsWarm != uint64(total-2) {
			t.Fatalf("workers=%d: chains=%d cold=%d warm=%d, want 2/2/%d (one chain per flow)",
				workers, st.SweepChains, st.SweepPointsCold, st.SweepPointsWarm, total-2)
		}
		if n := coldSolves.Value() - c0; n != 4 {
			t.Fatalf("workers=%d: %d cold thermal session solves, want 4 (two unit responses per flow)", workers, n)
		}
		out := make(map[int]string, len(v.Results))
		for _, r := range v.Results {
			if r.Report == nil {
				t.Fatalf("workers=%d: point %d missing report: %+v", workers, r.Index, r)
			}
			buf, err := json.Marshal(r.Report)
			if err != nil {
				t.Fatal(err)
			}
			out[r.Index] = string(buf)
		}
		return out
	}

	seq := run(1)
	par := run(4)
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for idx, want := range seq {
		if got := par[idx]; got != want {
			t.Fatalf("point %d differs between 1-worker and 4-worker runs:\n  seq: %s\n  par: %s", idx, want, got)
		}
	}
}

func TestJobLookup(t *testing.T) {
	s := &countingSolver{}
	e := newTestEngine(t, Options{Workers: 1, Solver: s.solve})
	job, err := e.SubmitSweep(context.Background(), SweepSpec{FlowsMLMin: []float64{100}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := e.Job(job.ID); !ok || got != job {
		t.Fatalf("Job(%q) = %v, %v", job.ID, got, ok)
	}
	if _, ok := e.Job("job-999999"); ok {
		t.Fatal("unknown job id resolved")
	}
	waitJob(t, job, 10*time.Second)
}
