package thermal

import (
	"context"
	"fmt"

	"bright/internal/mesh"
)

// Response is a Session's steady state as an affine function of its
// right-hand-side inputs: the inlet temperature, the power-map scale and
// the extra coolant heat. The network is linear and has no ambient sink:
// conduction stamps have zero row sums and the advection rows reproduce
// the inlet baseline, so the uniform inlet field solves the baseline
// alone and
//
//	T = T_in + load·Xp + heat·Xh
//
// where Xp solves the network for the power map with no baseline and Xh
// for 1 W of coolant heat spread exactly as Solve spreads
// extraFluidHeat. Neither solve sees the inlet temperature (the matrix
// depends on the flow, not on T_in), so two solves from zero answer
// every (inlet, load, heat) at the session's flow with an O(n) combine
// instead of a Krylov solve. A Response is not safe for concurrent use:
// it combines into a reused buffer.
type Response struct {
	s      *system
	xp, xh []float64
	x      []float64 // combine buffer
	powerW float64   // integrated power of the unit-load map
}

// Summary is the part of a steady state the co-simulation reads at
// every fixed-point iteration.
type Summary struct {
	// PeakT is the maximum active-plane temperature (K) over all tiers.
	PeakT float64
	// MeanFluidT and MeanWallT are the volume-mean coolant and
	// channel-wall temperatures (K) over all cavities.
	MeanFluidT, MeanWallT float64
}

// Response solves the session's network for its two unit responses:
// power (nil keeps the problem's map) at load 1 and 1 W of coolant heat.
// Both solves start from zero, count as cold session solves and leave
// the session's warm-start field untouched. The context is checked
// before each solve.
func (ss *Session) Response(ctx context.Context, power *mesh.Field2D) (*Response, error) {
	if power == nil {
		power = ss.p.Power
	}
	s := ss.s
	if err := s.checkPowerGrid(power); err != nil {
		return nil, err
	}
	r := &Response{s: s, xp: make([]float64, s.n), xh: make([]float64, s.n), x: make([]float64, s.n)}
	// One right-hand side serves both solves: the solver does not keep
	// b, so it is rebuilt in place for the second unit.
	b := make([]float64, s.n)
	for _, unit := range []struct {
		name string
		rhs  func()
		x    []float64
	}{
		{"power", func() { r.powerW = s.addPower(b, power) }, r.xp},
		{"coolant heat", func() { clear(b); s.addFluidHeat(b, 1) }, r.xh},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		unit.rhs()
		sessionSolvesCold.Inc()
		res, err := ss.solver.Solve(b, unit.x)
		ss.last = res
		if err != nil {
			return nil, fmt.Errorf("thermal: %s response solve failed: %w", unit.name, err)
		}
	}
	return r, nil
}

// combine writes T = T_in + load·Xp + heat·Xh into the reused buffer.
func (r *Response) combine(inletT, load, heat float64) []float64 {
	for i := range r.x {
		r.x[i] = inletT + load*r.xp[i] + heat*r.xh[i]
	}
	return r.x
}

// Summary returns the peak and mean temperatures of the steady state at
// the given inlet temperature (K), power-map scale and extra coolant
// heat (W), without building the field maps. Its means equal
// Solution's bitwise.
func (r *Response) Summary(inletT, load, heat float64) Summary {
	return r.s.summarize(r.combine(inletT, load, heat))
}

// Solution returns the full steady state at the given inlet
// temperature (K), power-map scale and extra coolant heat (W).
func (r *Response) Solution(inletT, load, heat float64) *Solution {
	sol := r.s.extract(r.combine(inletT, load, heat))
	sol.TotalPower = load * r.powerW
	return sol
}

// summarize computes Summary's fields from a raw solution vector, in
// extract's summation order.
func (s *system) summarize(x []float64) Summary {
	sum := Summary{PeakT: -1}
	nCav := len(s.cavKs)
	var fluidSum, wallSum float64
	for j := 0; j < s.ny; j++ {
		for i := 0; i < s.nx; i++ {
			for _, k := range s.activeKs {
				if ta := x[s.sIdx(i, j, k)]; ta > sum.PeakT {
					sum.PeakT = ta
				}
			}
			for c := 0; c < nCav; c++ {
				fluidSum += x[s.fIdx(c, i, j)]
				wallSum += x[s.sIdx(i, j, s.cavKs[c])]
			}
		}
	}
	sum.MeanFluidT = fluidSum / float64(s.nx*s.ny*nCav)
	sum.MeanWallT = wallSum / float64(s.nx*s.ny*nCav)
	return sum
}
