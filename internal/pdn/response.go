package pdn

import "fmt"

// Response is the power grid's DC answer as a function of the load
// scale and the supply level. The MNA matrix A never depends on either,
// and A·(supply·1) is exactly the supply injection at the via sites
// (the mesh stamps have zero row sums), so for the load map scaled by s
//
//	V = supply − s·u,  A·u = load·area.
//
// One CG solve for u then answers every (scale, supply) pair with an
// O(n) combine. The solver, matrix and preconditioner are dropped once
// u is known: a Response keeps only u and what Solution needs to read
// it, is immutable, and is safe for concurrent use.
type Response struct {
	layout
	u         []float64
	supply    float64
	totalLoad float64 // of the unscaled load map (A)
}

// NewResponse solves the problem's grid once for its LoadDensity.
// p.Supply records the rail voltage the load map was built for; it does
// not enter the solve.
func NewResponse(p *Problem) (*Response, error) {
	ses, err := NewSession(p)
	if err != nil {
		return nil, err
	}
	if err := ses.checkInputs(p.LoadDensity, p.Supply); err != nil {
		return nil, err
	}
	g := ses.g
	b := make([]float64, g.NumCells())
	totalLoad := 0.0
	for j := 0; j < g.NY(); j++ {
		for i := 0; i < g.NX(); i++ {
			q := p.LoadDensity.At(i, j) * g.CellArea(i, j)
			b[g.Index(i, j)] = q
			totalLoad += q
		}
	}
	u := make([]float64, len(b))
	if _, err := ses.solver.Solve(b, u); err != nil {
		return nil, fmt.Errorf("pdn: grid response solve failed: %w", err)
	}
	return &Response{layout: ses.layout, u: u, supply: p.Supply, totalLoad: totalLoad}, nil
}

// Supply is the rail voltage the response's load map was built for
// (the problem's Supply).
func (r *Response) Supply() float64 { return r.supply }

// Solution returns the DC operating point for the load map scaled by
// scale at the given supply level (V). The Solution owns its field.
func (r *Response) Solution(scale, supply float64) *Solution {
	v := make([]float64, len(r.u))
	for i, ui := range r.u {
		v[i] = supply - scale*ui
	}
	return r.solution(v, scale*r.totalLoad, supply)
}
