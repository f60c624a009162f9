package sim

import (
	"context"
	"fmt"
	"sync"
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

// Grid expands the spec into the full list of configurations, in
// row-major axis order (flow outermost, load innermost).
func (s SweepSpec) Grid() ([]core.Config, error) {
	base := core.DefaultConfig()
	if s.Base != nil {
		base = *s.Base
	}
	axis := func(vals []float64, fallback float64) []float64 {
		if len(vals) == 0 {
			return []float64{fallback}
		}
		return vals
	}
	flows := axis(s.FlowsMLMin, base.FlowMLMin)
	inlets := axis(s.InletTempsC, base.InletTempC)
	volts := axis(s.SupplyVoltages, base.SupplyVoltage)
	loads := axis(s.ChipLoads, base.ChipLoad)

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

// gridPoint is one sweep point with its grid position.
type gridPoint struct {
	idx int
	cfg core.Config
}

// chainGrid splits a row-major sweep grid into chains: maximal runs of
// consecutive points sharing a hydrodynamic condition (ChainKey, i.e.
// FlowMLMin and InletTempC up to solver tolerance). Because Grid()
// nests flow outermost and load innermost, points sharing the
// hydrodynamic condition — and therefore the thermal system matrix —
// are always contiguous, so each chain can run sequentially on one
// cached solver stack with neighbor warm starts. The cluster coordinator
// partitions on the same key so a chain never splits across shards.
func chainGrid(grid []core.Config) [][]gridPoint {
	var chains [][]gridPoint
	prevKey := ""
	for i, cfg := range grid {
		key := cfg.ChainKey()
		if i == 0 || key != prevKey {
			chains = append(chains, nil)
		}
		prevKey = key
		chains[len(chains)-1] = append(chains[len(chains)-1], gridPoint{idx: i, cfg: cfg})
	}
	return chains
}

// SubmitSweep expands the spec into warm-start chains (runs of
// grid-adjacent points sharing the hydrodynamic condition), splits long
// chains into bounded segments (maxSegmentPoints), and executes the
// segment plan on a work-stealing pool of up to Options.Workers
// goroutines, returning immediately with a pollable Job. Each segment
// runs sequentially on its own stateful solver from Options.BatchChain:
// every point after the segment's first warm-starts from its neighbor's
// converged thermal and PDN state, so batched sweeps amortize assembly,
// preconditioner setup and most Krylov iterations, while a skewed grid
// (one long chain among short ones) no longer serializes behind a
// single goroutine — idle workers steal queued segments from loaded
// ones. The segment plan depends only on the grid and the bound, never
// on worker count or timing, so per-point outputs are bitwise identical
// across worker counts and steal schedules; only completion order
// varies. Points still flow through the cache/single-flight path, so a
// sweep revisiting known configurations is mostly cache hits. Segment
// solves run inline on the sweep workers, not on the queue; the job
// runs until done or until ctx (or Job.Cancel) cancels it.
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

	chains := chainGrid(grid)
	// Chains are counted at plan time; a job canceled mid-flight still
	// reports the chains it planned, matching Total's planned points.
	e.m.sweepChains.Add(uint64(len(chains)))
	segs := planSegments(chains, e.opts.segment)
	workers := e.opts.Workers
	if workers > len(segs) {
		workers = len(segs)
	}
	sched := newSegmentScheduler(segs, workers)

	e.sweepWG.Add(1)
	go func() {
		defer e.sweepWG.Done()
		defer cancel()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for jobCtx.Err() == nil {
					seg, stolen := sched.next(w)
					if seg == nil {
						return
					}
					if stolen {
						e.m.sweepSteals.Inc()
					}
					e.m.sweepSegments.Inc()
					e.runSegment(jobCtx, j, seg.pts)
				}
			}(w)
		}
		wg.Wait()
		j.finish(jobCtx.Err())
	}()
	return j, nil
}

// runSegment walks one segment sequentially on a fresh chain solver:
// prefetch the segment's points, then solve them in grid order with
// neighbor warm starts. A segment's first solved point is cold (it pays
// the solver-stack setup, exactly like a chain head before
// segmentation), the rest are warm.
func (e *Engine) runSegment(jobCtx context.Context, j *Job, pts []gridPoint) {
	solver, prefetch := e.opts.BatchChain()
	inline := func(t *task) error {
		e.solve(t, solver)
		return nil
	}
	if prefetch != nil && len(pts) > 1 {
		cfgs := make([]core.Config, len(pts))
		for i, pt := range pts {
			cfgs[i] = pt.cfg
		}
		if err := prefetch(jobCtx, cfgs); err != nil {
			// Nothing is lost: every point still solves in the
			// sequential walk below.
			e.m.sweepPrefetchErrors.Inc()
		} else {
			e.m.sweepPrefetches.Inc()
		}
	}
	solved := 0
	for _, pt := range pts {
		if jobCtx.Err() != nil {
			return
		}
		e.closeMu.RLock()
		engineClosed := e.closed
		e.closeMu.RUnlock()
		if engineClosed {
			j.record(PointResult{Index: pt.idx, Config: pt.cfg, Error: ErrClosed.Error()})
			continue
		}
		start := time.Now()
		rep, didSolve, err := e.evaluate(jobCtx, pt.cfg, inline)
		if didSolve {
			if solved > 0 {
				e.m.sweepPointsWarm.Inc()
			} else {
				e.m.sweepPointsCold.Inc()
			}
			solved++
		}
		pr := PointResult{
			Index:      pt.idx,
			Config:     pt.cfg,
			DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
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
