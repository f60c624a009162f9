package thermal

import (
	"context"
	"fmt"

	"bright/internal/mesh"
	"bright/internal/num"
	"bright/internal/obs"
)

// Session solve telemetry (process-wide; see internal/obs). The warm
// label splits first solves from warm-started re-solves, making the
// co-simulation's warm-start hit rate visible on /metrics. A cold
// thermal.Solve is a fresh session's first solve, so each one counts
// one warm="false" solve, as does each of Response's two unit solves.
var (
	sessionSolvesWarm = obs.Default.Counter("bright_thermal_session_solves_total",
		"Thermal session solves by warm-start state.", obs.L("warm", "true"))
	sessionSolvesCold = obs.Default.Counter("bright_thermal_session_solves_total",
		"Thermal session solves by warm-start state.", obs.L("warm", "false"))
)

// Session caches one assembled steady-state thermal system — the FV
// network matrix, its ILU(0) preconditioner (the solver rule's choice
// for a nonsymmetric operator) and the Krylov workspace — for repeated
// solves where only the right-hand side changes: a new power map, a new
// electrochemical loss heat, or both. Solve re-solves for an arbitrary
// power map, warm-starting from the previous call's temperature field;
// when the power map only scales, Response answers every (load, heat)
// pair from two solves (the co-simulation's case).
//
// Warm-start contract: the cached matrix and guess are valid only while
// the Problem's geometry, stack, channel spec, grid resolution and flow
// stay fixed. Changing any of those (a new mesh, a clogging pattern, a
// different flow rate) requires a fresh Session — the session holds no
// invalidation magic, it is bound to the Problem it was built from.
// Changing only Power or ExtraFluidHeat between calls is the intended
// use. A Session is not safe for concurrent use.
type Session struct {
	p      *Problem
	s      *system
	solver *num.SparseSolver
	// x is the warm-start field: the displacement from the uniform
	// inlet temperature, which the inlet baseline alone holds at zero
	// (see Response). t is x + T_in, the field extract reads. Both are
	// sized on the first Solve: a Session used only through Response
	// never needs them.
	x, t []float64
	warm bool
	last num.IterResult
}

// NewSession assembles the problem once and prepares the cached solver.
// It and NewTransientSession are the only places a thermal operator gets
// a solver; the cold Solve is a NewSession plus one solve.
func NewSession(p *Problem) (*Session, error) {
	s, err := assemble(p, false)
	if err != nil {
		return nil, err
	}
	a := s.toCSR()
	ses := &Session{
		p: p,
		s: s,
		// Advection makes the network nonsymmetric: BiCGSTAB, no scan.
		// MaxIter rides the capped default so exhaustion surfaces as
		// num.ErrMaxIter instead of burning 60*n iterations. The
		// unknowns sit in grid order (solid layers, then one plane per
		// cavity's fluid), so the shape gets the semicoarsened
		// multigrid.
		solver: num.NewSparseSolverSymmetric(a, false, num.IterOptions{Tol: 1e-10, Shape: &num.GridShape{NX: s.nx, NY: s.ny, NZ: s.nz + len(s.cavKs)}}),
	}
	return ses, nil
}

// SolveContext computes the steady state for the given power map (nil
// keeps the problem's map) and extra coolant heat (W), warm-starting
// from the previous call's temperature field. The context is checked
// before the linear solve starts. Like Response it solves for the
// displacement from the uniform inlet field, so the solver's relative
// tolerance scales with the power and coolant heat alone, not with the
// inlet baseline (which would loosen it by the ~300 K inlet
// temperature times the advection conductance).
func (ss *Session) SolveContext(ctx context.Context, power *mesh.Field2D, extraFluidHeat float64) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if power == nil {
		power = ss.p.Power
	}
	if extraFluidHeat < 0 {
		return nil, fmt.Errorf("thermal: negative extra fluid heat %g", extraFluidHeat)
	}
	b, err := ss.s.rhsWithPower(nil, power, extraFluidHeat)
	if err != nil {
		return nil, err
	}
	if ss.warm {
		sessionSolvesWarm.Inc()
	} else {
		sessionSolvesCold.Inc()
	}
	if ss.x == nil {
		ss.x = make([]float64, ss.s.n)
	}
	res, err := ss.solver.Solve(b, ss.x)
	ss.last = res
	if err != nil {
		// Do not let a failed iterate poison the next warm start.
		num.Fill(ss.x, 0)
		ss.warm = false
		return nil, fmt.Errorf("thermal: session solve failed: %w", err)
	}
	ss.warm = true
	if ss.t == nil {
		ss.t = make([]float64, len(ss.x))
	}
	for i, d := range ss.x {
		ss.t[i] = ss.s.inletT + d
	}
	return ss.s.extract(ss.t), nil
}

// LastIterations reports the Krylov iteration count of the most recent
// solve — the observable measure of warm-start effectiveness.
func (ss *Session) LastIterations() int { return ss.last.Iterations }
