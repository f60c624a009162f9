package transport

import (
	"fmt"

	"bright/internal/num"
)

// StreamProblem describes 2D steady convection-diffusion in one
// electrolyte stream: x is streamwise (0..Length), y is transverse
// (0 at the electrode wall, Height at the far boundary, which is either
// the channel wall or the co-laminar interface, both treated as no-flux
// for the minor species).
//
// The axial-diffusion term is dropped (parabolic approximation), valid
// for Pe = vL/D >> 1; every configuration in the paper has Pe > 1e4. The
// resulting equations march downstream with one tridiagonal solve per
// station, which is what makes the solver fast enough to sit inside the
// polarization sweep.
type StreamProblem struct {
	Length float64 // m, electrode/streamwise extent
	Height float64 // m, transverse stream extent
	// Velocity returns the streamwise velocity (m/s) at transverse
	// position y in [0, Height].
	Velocity func(y float64) float64
	// D is the species diffusion coefficient (m2/s).
	D float64
	// CInlet is the inlet (bulk) concentration (mol/m3).
	CInlet float64
	// NX, NY are grid resolutions (streamwise stations, transverse cells).
	NX, NY int
}

// Validate reports whether the problem is well posed.
func (p *StreamProblem) Validate() error {
	if p.Length <= 0 || p.Height <= 0 {
		return fmt.Errorf("transport: nonpositive domain %gx%g", p.Length, p.Height)
	}
	if p.D <= 0 {
		return fmt.Errorf("transport: nonpositive diffusivity %g", p.D)
	}
	if p.CInlet < 0 {
		return fmt.Errorf("transport: negative inlet concentration %g", p.CInlet)
	}
	if p.Velocity == nil {
		return fmt.Errorf("transport: nil velocity profile")
	}
	if p.NX < 2 || p.NY < 3 {
		return fmt.Errorf("transport: grid too coarse (%dx%d)", p.NX, p.NY)
	}
	return nil
}

// StreamSolution is the marched concentration field and wall quantities.
type StreamSolution struct {
	// X are streamwise station positions (cell centers), length NX.
	X []float64
	// Y are transverse cell centers, length NY.
	Y []float64
	// C is the concentration field, C[ix][iy], mol/m3.
	C [][]float64
	// WallFlux is the species flux into the wall at each station
	// (mol/(m2 s), positive = species consumed at the electrode).
	WallFlux []float64
	// WallConc is the surface concentration at each station (mol/m3).
	WallConc []float64
}

// SolveFluxWall solves the stream with a prescribed wall flux profile
// flux(x) in mol/(m2 s) (positive = consumption). This is the coupling
// interface used by the flow-cell solver: kinetics set the local flux,
// transport returns the surface concentration it implies.
func (p *StreamProblem) SolveFluxWall(flux func(x float64) float64) (*StreamSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if flux == nil {
		return nil, fmt.Errorf("transport: nil flux profile")
	}
	sol := p.newSolution()
	dy := p.Height / float64(p.NY)
	dx := p.Length / float64(p.NX)
	c := make([]float64, p.NY)
	for i := range c {
		c[i] = p.CInlet
	}
	sub := make([]float64, p.NY)
	diag := make([]float64, p.NY)
	sup := make([]float64, p.NY)
	rhs := make([]float64, p.NY)
	for ix := 0; ix < p.NX; ix++ {
		x := (float64(ix) + 0.5) * dx
		f := flux(x)
		for j := 0; j < p.NY; j++ {
			y := (float64(j) + 0.5) * dy
			u := p.Velocity(y)
			if u <= 0 {
				u = 1e-12
			}
			adv := u / dx
			dif := p.D / (dy * dy)
			diag[j] = adv + 2*dif
			sub[j] = -dif
			sup[j] = -dif
			rhs[j] = adv * c[j]
			switch j {
			case 0:
				// Neumann: consumption flux f leaves through the wall.
				diag[j] = adv + dif
				rhs[j] -= f / dy
				sub[j] = 0
			case p.NY - 1:
				diag[j] = adv + dif
				sup[j] = 0
			}
		}
		next, err := num.SolveTridiag(sub, diag, sup, rhs)
		if err != nil {
			return nil, fmt.Errorf("transport: station %d: %w", ix, err)
		}
		c = next
		sol.WallFlux[ix] = f
		// Surface concentration: extrapolate from the first cell with
		// the flux gradient, C_s = c_0 - f*(dy/2)/D.
		sol.WallConc[ix] = c[0] - f*(dy/2)/p.D
		copy(sol.C[ix], c)
	}
	return sol, nil
}

func (p *StreamProblem) newSolution() *StreamSolution {
	sol := &StreamSolution{
		X:        make([]float64, p.NX),
		Y:        make([]float64, p.NY),
		C:        make([][]float64, p.NX),
		WallFlux: make([]float64, p.NX),
		WallConc: make([]float64, p.NX),
	}
	dx := p.Length / float64(p.NX)
	dy := p.Height / float64(p.NY)
	for i := range sol.X {
		sol.X[i] = (float64(i) + 0.5) * dx
		sol.C[i] = make([]float64, p.NY)
	}
	for j := range sol.Y {
		sol.Y[j] = (float64(j) + 0.5) * dy
	}
	return sol
}
