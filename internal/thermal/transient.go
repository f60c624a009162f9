package thermal

import (
	"context"
	"fmt"

	"bright/internal/mesh"
	"bright/internal/num"
)

// TransientResult is the sampled trajectory of a transient solve.
type TransientResult struct {
	// Times are the sample instants (s).
	Times []float64
	// PeakT is the active-plane peak temperature (K) at each sample.
	PeakT []float64
	// MeanFluidT is the coolant mean temperature (K) at each sample
	// (the quantity the electrochemistry follows in workload studies).
	MeanFluidT []float64
	// MeanWallT is the channel-wall mean temperature (K) per sample.
	MeanWallT []float64
	// TotalPowerW is the instantaneous chip power (W) per sample.
	TotalPowerW []float64
	// Final is the full state at the last step.
	Final *Solution
}

// SolveSchedule integrates the network under a time-varying power map:
// schedule(step, time) returns the power field for the step (1-based
// step index, time at the end of the step). A nil schedule holds
// p.Power constant — the plain step response. This is the engine of the
// workload scenarios (package workload): bursty chip activity produces
// temperature trajectories, which the quasi-static electrochemistry
// then follows.
func SolveSchedule(p *Problem, t0, dt float64, steps int, schedule func(step int, time float64) *mesh.Field2D) (*TransientResult, error) {
	return SolveScheduleContext(context.Background(), p, t0, dt, steps, schedule)
}

// SolveScheduleContext is SolveSchedule with cancellation: the context
// is checked at every step boundary, so a canceled workload run aborts
// within one backward-Euler step instead of finishing the trace.
func SolveScheduleContext(ctx context.Context, p *Problem, t0, dt float64, steps int, schedule func(step int, time float64) *mesh.Field2D) (*TransientResult, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("thermal: invalid transient parameters dt=%g steps=%d", dt, steps)
	}
	ts, err := NewTransientSession(p, t0, dt)
	if err != nil {
		return nil, err
	}
	res := &TransientResult{}
	power := p.Power
	for step := 1; step <= steps; step++ {
		time := float64(step) * dt
		if schedule != nil {
			if f := schedule(step, time); f != nil {
				power = f
			}
		}
		sol, err := ts.StepContext(ctx, power, p.ExtraFluidHeat)
		if err != nil {
			return nil, err
		}
		res.Times = append(res.Times, time)
		res.PeakT = append(res.PeakT, sol.PeakT)
		res.MeanFluidT = append(res.MeanFluidT, sol.MeanFluidT)
		res.MeanWallT = append(res.MeanWallT, sol.MeanWallT)
		res.TotalPowerW = append(res.TotalPowerW, sol.TotalPower)
		if step == steps {
			res.Final = sol
		}
	}
	return res, nil
}

// TransientSession is the step-at-a-time form of SolveSchedule: the
// backward-Euler matrix (A + C/dt) is assembled and preconditioned
// once, and each StepContext call advances the temperature state by one
// dt under a caller-supplied power map and coolant heat. Where
// SolveSchedule runs a whole trace in one call, a TransientSession is
// driven frame by frame by a long-lived caller — the streaming
// digital-twin sessions of internal/stream — and exposes its state
// vector for checkpoint/restore.
//
// The matrix is bound to the Problem's geometry, stack, flow and dt;
// changing any of those requires a fresh session. The temperature state
// survives such a rebuild: as long as the grid resolution and stack
// layout are unchanged (same node count and meaning), State from the
// old session may be Restore'd into the new one — that is how a
// degrading pump (a flow change, hence new advection terms) is stepped
// through without losing the temperature field. A TransientSession is
// not safe for concurrent use.
type TransientSession struct {
	p      *Problem
	dt     float64
	s      *system
	solver *num.SparseSolver
	x      []float64
	rhs    []float64
	time   float64
	step   int
}

// NewTransientSession assembles the backward-Euler system at the given
// step size, with the temperature state initialized uniformly to t0
// (typically the coolant inlet temperature).
func NewTransientSession(p *Problem, t0, dt float64) (*TransientSession, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: nonpositive transient step dt=%g", dt)
	}
	if t0 <= 0 {
		return nil, fmt.Errorf("thermal: nonpositive initial temperature %g", t0)
	}
	s, err := assemble(p, true)
	if err != nil {
		return nil, err
	}
	// Add the capacitance terms to the diagonal.
	s.co.Grow(len(s.cap))
	for row, c := range s.cap {
		s.co.Add(row, row, c/dt)
	}
	a := s.toCSR()
	// One cached solver for every step: the matrix is constant, so the
	// preconditioner and Krylov workspace are built once, and each step
	// warm-starts from the previous temperature field.
	ts := &TransientSession{
		p:      p,
		dt:     dt,
		s:      s,
		solver: num.NewSparseSolverSymmetric(a, false, num.IterOptions{Tol: 1e-9}),
		x:      make([]float64, s.n),
		rhs:    make([]float64, s.n),
	}
	num.Fill(ts.x, t0)
	return ts, nil
}

// Grid returns the solve grid, the layout power maps passed to
// StepContext must be rasterized on.
func (ts *TransientSession) Grid() *mesh.Grid2D { return ts.s.grid }

// Time returns the simulated time at the current state (s).
func (ts *TransientSession) Time() float64 { return ts.time }

// Steps returns the number of steps taken so far.
func (ts *TransientSession) Steps() int { return ts.step }

// StepContext advances the state by one backward-Euler step under the
// given power map (nil keeps the Problem's map) and extra coolant heat
// (W), returning the solution at the new time. The context is checked
// before the linear solve.
func (ts *TransientSession) StepContext(ctx context.Context, power *mesh.Field2D, extraFluidHeat float64) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if power == nil {
		power = ts.p.Power
	}
	if extraFluidHeat < 0 {
		return nil, fmt.Errorf("thermal: negative extra fluid heat %g", extraFluidHeat)
	}
	base, err := ts.s.rhsWithPower(ts.s.b, power, extraFluidHeat)
	if err != nil {
		return nil, fmt.Errorf("thermal: transient step %d: %w", ts.step+1, err)
	}
	copy(ts.rhs, base)
	for row, c := range ts.s.cap {
		ts.rhs[row] += c / ts.dt * ts.x[row]
	}
	if _, err := ts.solver.Solve(ts.rhs, ts.x); err != nil {
		return nil, fmt.Errorf("thermal: transient step %d: %w", ts.step+1, err)
	}
	ts.step++
	ts.time = float64(ts.step) * ts.dt
	return ts.s.extract(ts.x), nil
}

// State returns a copy of the temperature state vector (K per node) —
// the complete integrator state besides time, for checkpointing.
func (ts *TransientSession) State() []float64 {
	out := make([]float64, len(ts.x))
	copy(out, ts.x)
	return out
}

// Restore replaces the temperature state and clock, resuming a
// checkpointed trajectory (possibly in a freshly assembled session with
// the same node layout). The state length must match the session's.
func (ts *TransientSession) Restore(state []float64, time float64, step int) error {
	if len(state) != len(ts.x) {
		return fmt.Errorf("thermal: restore state has %d nodes, session has %d", len(state), len(ts.x))
	}
	if time < 0 || step < 0 {
		return fmt.Errorf("thermal: negative restore clock (time=%g step=%d)", time, step)
	}
	copy(ts.x, state)
	ts.time = time
	ts.step = step
	return nil
}
