package transport

// Validation references. Production drives StreamProblem through
// SolveFluxWall and uses the Leveque correlations; the fixed-wall
// solve, the Graetz correlation and the two-stream mixing solve below
// are what the tests check those paths against.

import (
	"fmt"
	"math"

	"bright/internal/num"
)

// PlateProfile returns a parabolic Poiseuille profile for a gap of the
// given height and mean velocity, u(y) = 6 v (y/h)(1 - y/h).
func PlateProfile(mean, height float64) func(float64) float64 {
	return func(y float64) float64 {
		t := y / height
		return 6 * mean * t * (1 - t)
	}
}

// UniformProfile returns a plug-flow profile (used for interface mixing
// studies where the exact profile is secondary).
func UniformProfile(mean float64) func(float64) float64 {
	return func(float64) float64 { return mean }
}

// dirichletSolution is a fixed-wall solve with its effective km.
type dirichletSolution struct {
	*StreamSolution
	// KmAvg is the effective average mass-transfer coefficient (m/s),
	// defined by total wall consumption / (area * (CInlet - CWall_avg)).
	KmAvg float64
}

// SolveDirichletWall solves the stream with a fixed wall concentration
// cWall (the diffusion-limited electrode condition; cWall = 0 gives the
// limiting current). It returns the field and the effective km, which is
// the quantity the correlation path approximates.
func (p *StreamProblem) SolveDirichletWall(cWall float64) (*dirichletSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cWall < 0 {
		return nil, fmt.Errorf("transport: negative wall concentration %g", cWall)
	}
	sol := &dirichletSolution{StreamSolution: p.newSolution()}
	dy := p.Height / float64(p.NY)
	dx := p.Length / float64(p.NX)

	c := make([]float64, p.NY)
	for i := range c {
		c[i] = p.CInlet
	}
	// March stations. Implicit in y: u_j (c_j - cPrev_j)/dx = D d2c/dy2.
	sub := make([]float64, p.NY)
	diag := make([]float64, p.NY)
	sup := make([]float64, p.NY)
	rhs := make([]float64, p.NY)
	totalFlux := 0.0
	for ix := 0; ix < p.NX; ix++ {
		for j := 0; j < p.NY; j++ {
			y := (float64(j) + 0.5) * dy
			u := p.Velocity(y)
			if u <= 0 {
				u = 1e-12 // stagnant film: pure diffusion balance
			}
			adv := u / dx
			dif := p.D / (dy * dy)
			diag[j] = adv + 2*dif
			sub[j] = -dif
			sup[j] = -dif
			rhs[j] = adv * c[j]
			switch j {
			case 0:
				// Electrode wall: Dirichlet via ghost cell at distance
				// dy/2: flux = D*(c_0 - cWall)/(dy/2).
				diag[j] = adv + dif + 2*dif
				rhs[j] += 2 * dif * cWall
				sub[j] = 0
			case p.NY - 1:
				// Far boundary: no flux.
				diag[j] = adv + dif
				sup[j] = 0
			}
		}
		next, err := num.SolveTridiag(sub, diag, sup, rhs)
		if err != nil {
			return nil, fmt.Errorf("transport: station %d: %w", ix, err)
		}
		c = next
		flux := p.D * (c[0] - cWall) / (dy / 2)
		sol.WallFlux[ix] = flux
		sol.WallConc[ix] = cWall
		totalFlux += flux * dx
		copy(sol.C[ix], c)
	}
	if p.CInlet > cWall {
		sol.KmAvg = totalFlux / (p.Length * (p.CInlet - cWall))
	}
	return sol, nil
}

// OutletDeficit returns the species flow deficit at the outlet relative
// to the inlet (mol/s per unit channel depth), which must equal the
// integrated wall consumption for a conservative scheme; the tests
// assert this balance.
func (p *StreamProblem) OutletDeficit(sol *StreamSolution) float64 {
	dy := p.Height / float64(p.NY)
	in, out := 0.0, 0.0
	last := sol.C[len(sol.C)-1]
	for j := 0; j < p.NY; j++ {
		y := (float64(j) + 0.5) * dy
		u := p.Velocity(y)
		in += u * p.CInlet * dy
		out += u * last[j] * dy
	}
	return in - out
}

// IntegratedWallFlux returns the total wall consumption (mol/s per unit
// channel depth).
func IntegratedWallFlux(p *StreamProblem, sol *StreamSolution) float64 {
	dx := p.Length / float64(p.NX)
	s := 0.0
	for _, f := range sol.WallFlux {
		s += f * dx
	}
	return s
}

// InterfaceMixing solves the two-stream inter-diffusion problem: a step
// initial profile (c = cInlet for y < Height/2, 0 above) advected
// downstream with no wall fluxes, and returns the 1-sigma mixing width
// at the outlet, defined via the second moment of dc/dy around the
// interface. Cross-checks the MixingWidth closed form.
func InterfaceMixing(length, height, v, d float64, nx, ny int) (float64, error) {
	p := &StreamProblem{
		Length: length, Height: height,
		Velocity: UniformProfile(v),
		D:        d, CInlet: 1, NX: nx, NY: ny,
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	dy := height / float64(ny)
	dx := length / float64(nx)
	c := make([]float64, ny)
	for j := range c {
		y := (float64(j) + 0.5) * dy
		if y < height/2 {
			c[j] = 1
		}
	}
	sub := make([]float64, ny)
	diag := make([]float64, ny)
	sup := make([]float64, ny)
	rhs := make([]float64, ny)
	for ix := 0; ix < nx; ix++ {
		for j := 0; j < ny; j++ {
			adv := v / dx
			dif := d / (dy * dy)
			diag[j] = adv + 2*dif
			sub[j] = -dif
			sup[j] = -dif
			rhs[j] = adv * c[j]
			if j == 0 || j == ny-1 {
				diag[j] = adv + dif
				if j == 0 {
					sub[j] = 0
				} else {
					sup[j] = 0
				}
			}
		}
		next, err := num.SolveTridiag(sub, diag, sup, rhs)
		if err != nil {
			return 0, err
		}
		c = next
	}
	// Second moment of -dc/dy about the interface.
	mid := height / 2
	var m0, m2 float64
	for j := 0; j < ny-1; j++ {
		g := (c[j] - c[j+1]) / dy // -dc/dy at face j+1/2
		y := (float64(j) + 1) * dy
		m0 += g * dy
		m2 += g * (y - mid) * (y - mid) * dy
	}
	if m0 <= 0 {
		return 0, fmt.Errorf("transport: degenerate interface profile")
	}
	return math.Sqrt(m2 / m0), nil
}

// KmGraetz returns the average mass-transfer coefficient from the
// combined Graetz-entry correlation
//
//	Sh = (Sh_inf^3 + 1.61^3 * Gz)^(1/3),  Gz = Re Sc Dh / L
//
// which recovers the Leveque scaling for short electrodes and the fully
// developed Sherwood number Sh_inf for very long ones. shInf defaults to
// 3.66 (constant-concentration wall in a circular-duct-equivalent) when
// zero is passed.
func KmGraetz(d, v, dh, l, shInf float64) float64 {
	if shInf <= 0 {
		shInf = 3.66
	}
	gz := v * dh * dh / (d * l) // = Re*Sc*Dh/L
	sh := math.Cbrt(shInf*shInf*shInf + 1.61*1.61*1.61*gz)
	return sh * d / dh
}
