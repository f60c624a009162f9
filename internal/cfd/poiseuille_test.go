package cfd

import (
	"fmt"
	"math"
	"testing"

	"bright/internal/mesh"
	"bright/internal/num"
)

// PoiseuilleSolution is the result of the finite-volume cross-section
// solve: the velocity field u(y, z) for a unit (or given) pressure
// gradient, plus integral quantities.
type PoiseuilleSolution struct {
	Grid     *mesh.Grid2D
	U        *mesh.Field2D // streamwise velocity, m/s
	FlowRate float64       // m3/s
	UMean    float64       // m/s
	UMax     float64       // m/s
}

// SolvePoiseuille solves the Poisson problem mu * laplacian(u) = -G with
// no-slip walls on the channel cross-section using a cell-centered finite
// volume discretization, where G is the (positive) pressure gradient
// -dp/dx. It provides a from-first-principles cross-check of the series
// solution in ExactVelocity/ExactFlowRate: the two must agree as the grid
// is refined, which the package tests assert.
func SolvePoiseuille(c Channel, f Fluid, gradient float64, nx, ny int) (*PoiseuilleSolution, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if nx < 3 || ny < 3 {
		return nil, fmt.Errorf("cfd: Poiseuille grid too coarse (%dx%d)", nx, ny)
	}
	g := mesh.NewUniformGrid2D(c.Width, c.Height, nx, ny)
	n := g.NumCells()
	co := num.NewCOO(n, n)
	b := make([]float64, n)

	// For each cell: sum of face conductances mu*A_face/d. Walls are
	// no-slip (u=0): a half-cell distance to the wall.
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			row := g.Index(i, j)
			dx := g.X.Widths[i]
			dy := g.Y.Widths[j]
			b[row] = gradient * dx * dy // source: G * cell area

			// West/East faces (normal along X): area dy, distance dx
			// between centers or dx/2 to a wall.
			addFace := func(ni, nj int, faceArea, dist float64) {
				cond := f.Viscosity * faceArea / dist
				co.Add(row, row, cond)
				if ni >= 0 && ni < nx && nj >= 0 && nj < ny {
					co.Add(row, g.Index(ni, nj), -cond)
				}
				// Wall neighbour contributes 0 to RHS (u_wall = 0).
			}
			if i > 0 {
				addFace(i-1, j, dy, g.X.CenterSpacing(i-1))
			} else {
				addFace(-1, j, dy, dx/2)
			}
			if i < nx-1 {
				addFace(i+1, j, dy, g.X.CenterSpacing(i))
			} else {
				addFace(nx, j, dy, dx/2)
			}
			if j > 0 {
				addFace(i, j-1, dx, g.Y.CenterSpacing(j-1))
			} else {
				addFace(i, -1, dx, dy/2)
			}
			if j < ny-1 {
				addFace(i, j+1, dx, g.Y.CenterSpacing(j))
			} else {
				addFace(i, ny, dx, dy/2)
			}
		}
	}
	a := co.ToCSR()
	x := make([]float64, n)
	if _, err := num.CG(a, b, x, num.IterOptions{Tol: 1e-12, MaxIter: 20 * n, M: num.NewJacobi(a)}); err != nil {
		return nil, fmt.Errorf("cfd: Poiseuille solve failed: %w", err)
	}
	sol := &PoiseuilleSolution{Grid: g, U: &mesh.Field2D{Grid: g, Data: x}}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			u := sol.U.At(i, j)
			sol.FlowRate += u * g.CellArea(i, j)
			if u > sol.UMax {
				sol.UMax = u
			}
		}
	}
	sol.UMean = sol.FlowRate / c.Area()
	return sol, nil
}

func TestPoiseuilleMatchesExactSeries(t *testing.T) {
	c := power7Channel
	g := 1e5
	sol, err := SolvePoiseuille(c, vanadium, g, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	qExact := ExactFlowRate(c, vanadium, g)
	if math.Abs(sol.FlowRate-qExact)/qExact > 0.01 {
		t.Fatalf("FVM flow rate %g vs exact %g", sol.FlowRate, qExact)
	}
	uMaxExact := ExactVelocity(c, vanadium, g, 0, 0)
	if math.Abs(sol.UMax-uMaxExact)/uMaxExact > 0.02 {
		t.Fatalf("FVM u_max %g vs exact %g", sol.UMax, uMaxExact)
	}
}

func TestPoiseuilleGridConvergence(t *testing.T) {
	c := Channel{Width: 300e-6, Height: 300e-6, Length: 1}
	g := 5e4
	qExact := ExactFlowRate(c, vanadium, g)
	var prevErr float64 = math.Inf(1)
	for _, n := range []int{8, 16, 32} {
		sol, err := SolvePoiseuille(c, vanadium, g, n, n)
		if err != nil {
			t.Fatal(err)
		}
		e := math.Abs(sol.FlowRate-qExact) / qExact
		if e > prevErr*1.001 {
			t.Fatalf("no convergence: n=%d err=%g prev=%g", n, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 0.02 {
		t.Fatalf("finest-grid error %g too large", prevErr)
	}
}

func TestPoiseuilleLinearInGradient(t *testing.T) {
	c := power7Channel
	s1, err := SolvePoiseuille(c, vanadium, 1e4, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SolvePoiseuille(c, vanadium, 2e4, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2.FlowRate-2*s1.FlowRate)/s2.FlowRate > 1e-6 {
		t.Fatalf("Stokes linearity violated: %g vs 2*%g", s2.FlowRate, s1.FlowRate)
	}
}

func TestPoiseuilleAllVelocitiesPositive(t *testing.T) {
	sol, err := SolvePoiseuille(power7Channel, vanadium, 1e5, 12, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range sol.U.Data {
		if u <= 0 {
			t.Fatalf("nonpositive interior velocity %g", u)
		}
	}
	if sol.UMean <= 0 || sol.UMax < sol.UMean {
		t.Fatalf("UMean=%g UMax=%g inconsistent", sol.UMean, sol.UMax)
	}
}

func TestPoiseuilleInputValidation(t *testing.T) {
	if _, err := SolvePoiseuille(Channel{}, vanadium, 1, 8, 8); err == nil {
		t.Fatal("invalid channel must error")
	}
	if _, err := SolvePoiseuille(power7Channel, Fluid{}, 1, 8, 8); err == nil {
		t.Fatal("invalid fluid must error")
	}
	if _, err := SolvePoiseuille(power7Channel, vanadium, 1, 2, 8); err == nil {
		t.Fatal("too-coarse grid must error")
	}
}
