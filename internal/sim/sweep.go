package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bright/internal/core"
)

// MaxSweepPoints bounds a single sweep's grid so one request cannot
// enqueue unbounded work.
const MaxSweepPoints = 4096

// SweepSpec describes a batched design-space sweep: the cartesian
// product of the listed axis values, each applied on top of Base. An
// empty axis keeps Base's value for that field, so a spec with a single
// populated axis is a 1-D sweep.
type SweepSpec struct {
	// Base is the configuration the axes override; zero value means
	// core.DefaultConfig().
	Base *core.Config `json:"base,omitempty"`
	// Axes (any may be empty):
	FlowsMLMin     []float64 `json:"flows_ml_min,omitempty"`
	InletTempsC    []float64 `json:"inlet_temps_c,omitempty"`
	SupplyVoltages []float64 `json:"supply_voltages,omitempty"`
	ChipLoads      []float64 `json:"chip_loads,omitempty"`
}

// axes resolves the spec's base configuration and its four axes, an
// empty axis falling back to the base's value.
func (s SweepSpec) axes() (base core.Config, flows, inlets, volts, loads []float64) {
	base = core.DefaultConfig()
	if s.Base != nil {
		base = *s.Base
	}
	axis := func(vals []float64, fallback float64) []float64 {
		if len(vals) == 0 {
			return []float64{fallback}
		}
		return vals
	}
	return base,
		axis(s.FlowsMLMin, base.FlowMLMin),
		axis(s.InletTempsC, base.InletTempC),
		axis(s.SupplyVoltages, base.SupplyVoltage),
		axis(s.ChipLoads, base.ChipLoad)
}

// Grid expands the spec into the full list of configurations, in
// row-major axis order (flow outermost, load innermost).
func (s SweepSpec) Grid() ([]core.Config, error) {
	base, flows, inlets, volts, loads := s.axes()
	n := len(flows) * len(inlets) * len(volts) * len(loads)
	if n == 0 {
		return nil, fmt.Errorf("sim: empty sweep grid")
	}
	if n > MaxSweepPoints {
		return nil, fmt.Errorf("sim: sweep grid has %d points, cap is %d", n, MaxSweepPoints)
	}
	grid := make([]core.Config, 0, n)
	for _, f := range flows {
		for _, t := range inlets {
			for _, v := range volts {
				for _, l := range loads {
					cfg := base
					cfg.FlowMLMin, cfg.InletTempC, cfg.SupplyVoltage, cfg.ChipLoad = f, t, v, l
					if err := cfg.Validate(); err != nil {
						return nil, fmt.Errorf("sim: sweep point %d: %w", len(grid), err)
					}
					grid = append(grid, cfg)
				}
			}
		}
	}
	return grid, nil
}

// Chains splits the spec into its warm-start chains: one sub-spec per
// flow, in Grid() order, each carrying the full inlet x voltage x load
// sub-grid. Every point of a chain shares the flow, and therefore the
// thermal system matrix and its unit responses (the inlet enters only
// their baseline), so a chain runs sequentially on one solver stack
// with neighbor warm starts. Grid() nests the other axes inside the flow
// axis, so the chains' grids, concatenated, are exactly Grid(). The
// engine runs each chain whole on one worker and the cluster
// coordinator places each chain whole on one shard.
func (s SweepSpec) Chains() []SweepSpec {
	_, flows, _, _, _ := s.axes()
	chains := make([]SweepSpec, len(flows))
	for i, f := range flows {
		chains[i] = s
		chains[i].FlowsMLMin = []float64{f}
	}
	return chains
}

// JobState is the lifecycle of a sweep job.
type JobState string

const (
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"   // at least one point errored
	JobCanceled JobState = "canceled" // job context canceled before completion
)

// PointResult is one solved sweep point, streamed into the job as
// workers complete it (order follows completion, not grid order; Index
// gives the grid position).
type PointResult struct {
	Index      int         `json:"index"`
	Config     core.Config `json:"config"`
	Report     *ReportView `json:"report,omitempty"`
	Error      string      `json:"error,omitempty"`
	DurationMS float64     `json:"duration_ms"`
}

// Job is an asynchronous sweep: submitted once, polled for state and
// incrementally streamed results.
type Job struct {
	ID    string
	Total int

	mu        sync.Mutex
	state     JobState
	results   []PointResult
	completed int
	failed    int
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
}

// JobView is a poll snapshot of a job, shaped for JSON.
type JobView struct {
	ID        string        `json:"id"`
	State     JobState      `json:"state"`
	Total     int           `json:"total"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Results   []PointResult `json:"results"`
}

// Snapshot returns a copy of the job's current state; the results slice
// is copied so callers can serialize it without holding the job lock.
func (j *Job) Snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	out := JobView{
		ID:        j.ID,
		State:     j.state,
		Total:     j.Total,
		Completed: j.completed,
		Failed:    j.failed,
		ElapsedMS: float64(end.Sub(j.started)) / float64(time.Millisecond),
		Results:   append([]PointResult(nil), j.results...),
	}
	return out
}

// Cancel aborts the job's remaining points; already-solved points stay.
func (j *Job) Cancel() { j.cancel() }

func (j *Job) record(r PointResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results = append(j.results, r)
	j.completed++
	if r.Error != "" {
		j.failed++
	}
}

func (j *Job) finish(ctxErr error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case ctxErr != nil:
		j.state = JobCanceled
	case j.failed > 0:
		j.state = JobFailed
	default:
		j.state = JobDone
	}
}

// jobRegistry tracks submitted jobs by ID.
type jobRegistry struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*Job)}
}

func (r *jobRegistry) add(j *Job) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	j.ID = fmt.Sprintf("job-%06d", r.seq)
	r.jobs[j.ID] = j
	return j.ID
}

func (r *jobRegistry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

func (r *jobRegistry) counts() (active, done int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.jobs {
		j.mu.Lock()
		if j.state == JobRunning {
			active++
		} else {
			done++
		}
		j.mu.Unlock()
	}
	return active, done
}

// SubmitSweep expands the spec into its warm-start chains (Chains) and
// runs them on up to Options.Workers goroutines, returning immediately
// with a pollable Job. The workers pull whole chains in grid order from
// one shared cursor; a chain is never split. Each chain runs
// sequentially on its own stateful solver from Options.BatchChain: its
// first point pays the cold solver-stack build and every later point
// warm-starts from its neighbor's converged state, so a chain costs
// about one build whatever its length. A chain's numeric path depends
// only on its own points, so per-point outputs are bitwise identical
// across worker counts; only completion order varies. Points still flow
// through the cache/single-flight path, so a sweep revisiting known
// configurations is mostly cache hits. Chain solves run inline on the
// sweep workers, not on the queue; the job runs until done or until ctx
// (or Job.Cancel) cancels it.
func (e *Engine) SubmitSweep(ctx context.Context, spec SweepSpec) (*Job, error) {
	e.closeMu.RLock()
	closed := e.closed
	e.closeMu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	grid, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	jobCtx, cancel := context.WithCancel(ctx)
	j := &Job{
		Total:   len(grid),
		state:   JobRunning,
		started: time.Now(),
		cancel:  cancel,
	}
	e.jobs.add(j)

	chains := len(spec.Chains())
	per := len(grid) / chains // every chain has len(inlets)*len(volts)*len(loads) points
	// Chains are counted at plan time; a job canceled mid-flight still
	// reports the chains it planned, matching Total's planned points.
	e.m.sweepChains.Add(uint64(chains))
	workers := min(e.opts.Workers, chains)
	var cursor atomic.Int64

	e.sweepWG.Add(1)
	go func() {
		defer e.sweepWG.Done()
		defer cancel()
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for jobCtx.Err() == nil {
					c := int(cursor.Add(1)) - 1
					if c >= chains {
						return
					}
					e.runChain(jobCtx, j, c*per, grid[c*per:(c+1)*per:(c+1)*per])
				}
			}()
		}
		wg.Wait()
		j.finish(jobCtx.Err())
	}()
	return j, nil
}

// runChain walks one chain sequentially on a fresh chain solver:
// prefetch the chain's points, then solve them in grid order with
// neighbor warm starts. start is the grid index of cfgs[0]. The
// chain's first solved point is cold (it pays the solver-stack build),
// the rest are warm.
func (e *Engine) runChain(jobCtx context.Context, j *Job, start int, cfgs []core.Config) {
	solver, prefetch := e.opts.BatchChain()
	inline := func(t *task) error {
		e.solve(t, solver)
		return nil
	}
	if prefetch != nil && len(cfgs) > 1 {
		if err := prefetch(jobCtx, cfgs); err != nil {
			// Nothing is lost: every point still solves in the
			// sequential walk below.
			e.m.sweepPrefetchErrors.Inc()
		} else {
			e.m.sweepPrefetches.Inc()
		}
	}
	solved := 0
	for i, cfg := range cfgs {
		if jobCtx.Err() != nil {
			return
		}
		e.closeMu.RLock()
		engineClosed := e.closed
		e.closeMu.RUnlock()
		if engineClosed {
			j.record(PointResult{Index: start + i, Config: cfg, Error: ErrClosed.Error()})
			continue
		}
		t0 := time.Now()
		rep, didSolve, err := e.evaluate(jobCtx, cfg, inline)
		if didSolve {
			if solved > 0 {
				e.m.sweepPointsWarm.Inc()
			} else {
				e.m.sweepPointsCold.Inc()
			}
			solved++
		}
		pr := PointResult{
			Index:      start + i,
			Config:     cfg,
			DurationMS: float64(time.Since(t0)) / float64(time.Millisecond),
		}
		if err != nil {
			pr.Error = err.Error()
		} else {
			v := NewReportView(rep)
			pr.Report = &v
		}
		j.record(pr)
	}
}

// Job returns the job with the given ID.
func (e *Engine) Job(id string) (*Job, bool) {
	return e.jobs.get(id)
}
