// Package cosim couples the electrochemical flow-cell array model with
// the compact thermal model into the fixed-point electro-thermal
// co-simulation of Section III-B: the chip and flow-cell losses heat the
// coolant, the warmer electrolyte has faster kinetics and diffusion
// (more current at fixed potential), which changes the dissipated heat,
// and so on to convergence. It quantifies the paper's two sensitivity
// claims: <= 4% current gain at nominal flow, and up to ~23% power gain
// at reduced flow (48 ml/min) or elevated inlet temperature (37 C).
package cosim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bright/internal/flowcell"
	"bright/internal/obs"
	"bright/internal/thermal"
	"bright/internal/units"
)

// Fixed-point loop telemetry (process-wide; see internal/obs). The
// outcome label separates healthy convergence from iteration-budget
// exhaustion, solver errors and cancellations — the signal a
// design-space sweep needs to spot regions where the electro-thermal
// coupling stops converging.
var (
	cosimIterations = obs.Default.Counter("bright_cosim_iterations_total",
		"Electro-thermal fixed-point iterations executed.")
	cosimConverged = obs.Default.Counter("bright_cosim_runs_total",
		"Completed co-simulation runs by outcome.", obs.L("outcome", "converged"))
	cosimMaxIter = obs.Default.Counter("bright_cosim_runs_total",
		"Completed co-simulation runs by outcome.", obs.L("outcome", "maxiter"))
	cosimErrored = obs.Default.Counter("bright_cosim_runs_total",
		"Completed co-simulation runs by outcome.", obs.L("outcome", "error"))
	cosimCanceled = obs.Default.Counter("bright_cosim_runs_total",
		"Completed co-simulation runs by outcome.", obs.L("outcome", "canceled"))
)

// ErrNoConvergence reports a fixed point that did not settle within
// Config.MaxIter iterations. The run is deterministic, so retrying the
// same Config fails the same way; the partial Result is still returned.
var ErrNoConvergence = errors.New("cosim: no convergence")

// Config describes one co-simulation run on the POWER7+ case study.
type Config struct {
	// TotalFlowMLMin is the array total flow rate in ml/min (Table II
	// nominal: 676; the sensitivity case: 48).
	TotalFlowMLMin float64
	// InletTempC is the electrolyte inlet temperature in C (27 nominal,
	// 37 for the hot-inlet case).
	InletTempC float64
	// TerminalVoltage is the array operating voltage (V), 1.0 in the
	// case study.
	TerminalVoltage float64
	// MaxIter bounds the fixed-point loop (default 30).
	MaxIter int
	// TolK is the convergence tolerance on the effective cell
	// temperature (default 0.01 K).
	TolK float64
	// Relax is the under-relaxation factor in (0, 1] (default 0.7).
	Relax float64
	// ChipLoad scales the chip power map (1 = full load).
	ChipLoad float64
}

func (c Config) withDefaults() Config {
	if c.MaxIter == 0 {
		c.MaxIter = 30
	}
	if c.TolK == 0 {
		c.TolK = 0.01
	}
	if c.Relax == 0 {
		c.Relax = 0.7
	}
	if c.ChipLoad == 0 {
		c.ChipLoad = 1
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.TotalFlowMLMin <= 0 {
		return fmt.Errorf("cosim: nonpositive flow %g ml/min", c.TotalFlowMLMin)
	}
	if c.TerminalVoltage <= 0 {
		return fmt.Errorf("cosim: nonpositive terminal voltage %g", c.TerminalVoltage)
	}
	if c.InletTempC < 0 || c.InletTempC > 90 {
		return fmt.Errorf("cosim: inlet %g C outside the liquid operating window", c.InletTempC)
	}
	if c.Relax < 0 || c.Relax > 1 {
		return fmt.Errorf("cosim: relaxation %g out of (0,1]", c.Relax)
	}
	if c.ChipLoad < 0 {
		return fmt.Errorf("cosim: negative chip load %g", c.ChipLoad)
	}
	return nil
}

// IterRecord traces one fixed-point iteration.
type IterRecord struct {
	CellTempK float64 // electrochemistry temperature used this iteration
	Current   float64 // A at the terminal voltage
	Power     float64 // W delivered
	HeatW     float64 // electrochemical heat deposited in the coolant
	PeakTK    float64 // chip peak temperature
}

// Result is a converged co-simulation state.
type Result struct {
	Config     Config
	Iterations int
	Converged  bool
	// CellTempK is the converged effective electrolyte film temperature
	// driving the electrochemistry.
	CellTempK float64
	// Operating is the array's electrical operating point at the
	// terminal voltage and converged temperature.
	Operating flowcell.OperatingPoint
	// Thermal is the final thermal solution.
	Thermal *thermal.Solution
	// History traces the iterations.
	History []IterRecord
}

// effectiveCellTemp blends the mean wall and bulk coolant temperatures
// into the film temperature the electrode boundary layer sees.
func effectiveCellTemp(meanFluidT, meanWallT float64) float64 {
	return 0.5 * (meanFluidT + meanWallT)
}

// Run executes the fixed-point co-simulation.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the context is checked at every
// outer fixed-point iteration (and threaded into the thermal solver), so
// a canceled context aborts the co-simulation within one outer
// iteration, returning the context's error.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r, err := NewRunner(cfg.TotalFlowMLMin, cfg.InletTempC)
	if err != nil {
		cosimErrored.Inc()
		return nil, fmt.Errorf("cosim: thermal session: %w", err)
	}
	return r.RunContext(ctx, cfg)
}

// Runner caches the thermal operator behind the co-simulation for one
// total flow: the FV network is assembled and preconditioned exactly
// once, and its unit responses (thermal.Response: two Krylov solves on
// the first run) answer every later fixed-point iteration — across
// iterations AND across consecutive RunContext calls at any inlet
// temperature, ChipLoad or TerminalVoltage (the inner axes of
// sim.SweepSpec.Grid()'s row-major order) — with an O(n) combine and no
// linear solve: the inlet temperature enters only the combine's
// baseline, never the matrix. A Runner is not safe for concurrent use.
type Runner struct {
	flowMLMin float64
	base      *thermal.Problem
	session   *thermal.Session
	// response is built from session on the first run.
	response *thermal.Response
	// lastTCell is the previous run's converged cell temperature (0 until
	// a run converges) and lastInletK that run's inlet temperature.
	// Seeding the next run's fixed point from lastTCell, shifted by the
	// inlet change — a continuation in the sweep's inner axes — converges
	// in a fraction of the outer iterations a cold start from the inlet
	// temperature needs, and each outer iteration saved is one flow-cell
	// polarization saved.
	lastTCell, lastInletK float64
}

// NewRunner assembles the thermal session for one total flow.
// inletTempC only names the thermal.Problem the session is assembled
// from; the Runner serves any valid inlet temperature at this flow.
func NewRunner(flowMLMin, inletTempC float64) (*Runner, error) {
	tp := thermal.Power7Problem(flowMLMin, units.CtoK(inletTempC), 0)
	session, err := thermal.NewSession(tp)
	if err != nil {
		return nil, err
	}
	return &Runner{
		flowMLMin: flowMLMin,
		base:      tp,
		session:   session,
	}, nil
}

// Matches reports whether the runner's cached thermal session covers the
// given total flow. Sweep grids repeat exact float values along each
// axis, so exact comparison is the right test.
func (r *Runner) Matches(flowMLMin float64) bool {
	return r.flowMLMin == flowMLMin
}

// RunContext executes the fixed-point co-simulation on the cached
// operator. The config's flow must match the runner's; its inlet
// temperature sets the response's baseline and ChipLoad scales the
// power-map response.
func (r *Runner) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if !r.Matches(cfg.TotalFlowMLMin) {
		return nil, fmt.Errorf("cosim: runner bound to %g ml/min cannot run %g ml/min",
			r.flowMLMin, cfg.TotalFlowMLMin)
	}
	if r.response == nil {
		resp, err := r.session.Response(ctx, r.base.Power)
		if err != nil {
			if ctx.Err() != nil {
				cosimCanceled.Inc()
				return nil, ctx.Err()
			}
			cosimErrored.Inc()
			return nil, fmt.Errorf("cosim: thermal response: %w", err)
		}
		r.response = resp
	}
	inletK := units.CtoK(cfg.InletTempC)
	tCell := inletK
	if r.lastTCell != 0 {
		// Warm start the fixed point from the neighboring point's
		// converged state, shifted by the inlet change (the field is T_in
		// plus a rise T_in does not enter). The iteration is a
		// contraction, so the seed changes only how fast it converges,
		// not where.
		tCell = r.lastTCell + (inletK - r.lastInletK)
	}
	res := &Result{Config: cfg}
	var heat float64
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			cosimCanceled.Inc()
			return nil, err
		}
		res.Iterations = iter
		cosimIterations.Inc()
		array := flowcell.Power7ArrayAt(cfg.TotalFlowMLMin, tCell)
		op, err := array.CurrentAtVoltage(cfg.TerminalVoltage)
		if err != nil {
			cosimErrored.Inc()
			return nil, fmt.Errorf("cosim: iteration %d (T=%.2f K): %w", iter, tCell, err)
		}
		heat, err = array.HeatDissipation(op)
		if err != nil {
			cosimErrored.Inc()
			return nil, err
		}
		sum := r.response.Summary(inletK, cfg.ChipLoad, heat)
		res.History = append(res.History, IterRecord{
			CellTempK: tCell,
			Current:   op.Current,
			Power:     op.Power,
			HeatW:     heat,
			PeakTK:    sum.PeakT,
		})
		res.Operating = op
		tNew := effectiveCellTemp(sum.MeanFluidT, sum.MeanWallT)
		if math.Abs(tNew-tCell) < cfg.TolK {
			res.Converged = true
			res.CellTempK = tCell
			res.Thermal = r.response.Solution(inletK, cfg.ChipLoad, heat)
			r.lastTCell, r.lastInletK = tCell, inletK
			cosimConverged.Inc()
			return res, nil
		}
		tCell += cfg.Relax * (tNew - tCell)
	}
	res.CellTempK = tCell
	res.Thermal = r.response.Solution(inletK, cfg.ChipLoad, heat)
	cosimMaxIter.Inc()
	return res, fmt.Errorf("%w after %d iterations (last dT drive)", ErrNoConvergence, cfg.MaxIter)
}

// IsothermalReference computes the array operating point with the
// electrochemistry pinned at the inlet temperature (no thermal
// feedback) — the baseline against which the paper's 4% and 23% gains
// are measured.
func IsothermalReference(cfg Config) (flowcell.OperatingPoint, error) {
	if err := cfg.Validate(); err != nil {
		return flowcell.OperatingPoint{}, err
	}
	array := flowcell.Power7ArrayAt(cfg.TotalFlowMLMin, units.CtoK(cfg.InletTempC))
	return array.CurrentAtVoltage(cfg.TerminalVoltage)
}

// Gain compares a coupled run against an isothermal reference at the
// same hydrodynamic condition and returns the relative current and
// power gains from the thermal coupling.
type Gain struct {
	Coupled   *Result
	Reference flowcell.OperatingPoint
	// CurrentGain = I_coupled/I_ref - 1 at the fixed terminal voltage.
	CurrentGain float64
	// PowerGain = P_coupled/P_ref - 1.
	PowerGain float64
}

// CouplingGain runs the co-simulation and its isothermal reference and
// reports the thermal-coupling gain.
func CouplingGain(cfg Config) (*Gain, error) {
	coupled, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	ref, err := IsothermalReference(cfg)
	if err != nil {
		return nil, err
	}
	return &Gain{
		Coupled:     coupled,
		Reference:   ref,
		CurrentGain: coupled.Operating.Current/ref.Current - 1,
		PowerGain:   coupled.Operating.Power/ref.Power - 1,
	}, nil
}
