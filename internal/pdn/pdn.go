// Package pdn models the on-chip power delivery network of the case
// study: a resistive power-grid mesh over the die, current-sink loads
// from the floorplan power map, and microfluidic-fed voltage-regulator
// (VRM) sources injecting through TSV via sites above the cache regions
// (paper Figs. 5, 6 and 8). The DC operating point is a modified nodal
// analysis solved with preconditioned conjugate gradients.
package pdn

import (
	"fmt"
	"math"

	"bright/internal/floorplan"
	"bright/internal/mesh"
	"bright/internal/num"
)

// VRM is a voltage regulator module converting the flow-cell potential
// to the chip supply level (the paper cites switched-capacitor
// converters at 86% efficiency, reference [22]).
type VRM struct {
	// Vout is the regulated output voltage (V).
	Vout float64
	// Efficiency in (0, 1].
	Efficiency float64
	// OutputResistance is the converter output impedance (ohm), lumped
	// into each via site's source resistance.
	OutputResistance float64
}

// DefaultVRM returns the case-study VRM: 1.0 V output at 86% efficiency
// (the switched-capacitor converter of the paper's reference [22]) with
// a 5 mohm output impedance.
func DefaultVRM() VRM {
	return VRM{Vout: 1.0, Efficiency: 0.86, OutputResistance: 5e-3}
}

// ViaSite is one TSV bundle feeding the grid from a VRM output.
type ViaSite struct {
	// X, Y is the site location on the die (m).
	X, Y float64
	// Resistance is the series resistance (ohm) of the TSV bundle plus
	// the VRM output impedance.
	Resistance float64
}

// Problem describes one power-grid DC solve.
type Problem struct {
	Floorplan *floorplan.Floorplan
	// SheetResistance of the on-chip power grid (ohm/square).
	SheetResistance float64
	// Supply is the VRM-regulated source voltage (V).
	Supply float64
	// Sites are the VRM/TSV injection points.
	Sites []ViaSite
	// LoadDensity is the sink current density field (A/m2) on the solve
	// grid; build it with CacheLoad or a custom map.
	LoadDensity *mesh.Field2D
	// NX, NY are the grid resolution (defaults 106x85, ~0.25 mm cells).
	NX, NY int
}

// Validate reports whether the problem is well posed.
func (p *Problem) Validate() error {
	if p.Floorplan == nil {
		return fmt.Errorf("pdn: nil floorplan")
	}
	if p.SheetResistance <= 0 {
		return fmt.Errorf("pdn: nonpositive sheet resistance %g", p.SheetResistance)
	}
	if p.Supply <= 0 {
		return fmt.Errorf("pdn: nonpositive supply %g", p.Supply)
	}
	if len(p.Sites) == 0 {
		return fmt.Errorf("pdn: no via sites")
	}
	for k, s := range p.Sites {
		if s.Resistance <= 0 {
			return fmt.Errorf("pdn: site %d has nonpositive resistance", k)
		}
		if s.X < 0 || s.X > p.Floorplan.Width || s.Y < 0 || s.Y > p.Floorplan.Height {
			return fmt.Errorf("pdn: site %d at (%g, %g) outside die", k, s.X, s.Y)
		}
	}
	if p.LoadDensity == nil {
		return fmt.Errorf("pdn: nil load density")
	}
	return nil
}

func (p *Problem) grid() *mesh.Grid2D {
	nx, ny := p.NX, p.NY
	if nx == 0 {
		nx = 106
	}
	if ny == 0 {
		ny = 85
	}
	return mesh.NewUniformGrid2D(p.Floorplan.Width, p.Floorplan.Height, nx, ny)
}

// Solution is the solved grid state.
type Solution struct {
	Grid *mesh.Grid2D
	// V is the node voltage field (V).
	V *mesh.Field2D
	// MinV, MaxV are the voltage extremes over the die.
	MinV, MaxV float64
	// MinVCache is the minimum voltage inside cache units (the quantity
	// that matters for the Fig. 8 experiment).
	MinVCache float64
	// TotalLoad is the summed sink current (A).
	TotalLoad float64
	// SiteCurrents are the injection currents per via site (A).
	SiteCurrents []float64
	// WorstX, WorstY locate the minimum cache voltage.
	WorstX, WorstY float64
}

// Session caches one assembled PDN grid for repeated solves where only
// the load map and the supply level change. The MNA matrix depends only
// on the grid geometry, the sheet resistance and the via sites — load
// currents and the supply voltage enter the right-hand side alone — so
// across a parameter sweep every point shares the matrix, the
// preconditioner (geometric multigrid from num.MGAutoThreshold up; setup
// is paid once here, not per point) and the Krylov workspace. The
// internal warm start chains voltage fields between consecutive solves.
// A Session is not safe for concurrent use.
type Session struct {
	layout
	p      *Problem
	solver *num.SparseSolver
	b, x   []float64
	bb, xx []float64 // column-major batch blocks (SolveBatch scratch)
	warm   num.WarmStart
}

// layout is what turns a voltage vector into a Solution: the solve
// grid, which of its cells lie in cache units, and the via sites with
// their grid nodes.
type layout struct {
	g         *mesh.Grid2D
	cache     []bool // per cell index: center inside a cache unit
	sites     []ViaSite
	siteNodes []int
}

func newLayout(p *Problem, g *mesh.Grid2D) layout {
	l := layout{g: g, cache: cacheMask(p, g), sites: p.Sites, siteNodes: make([]int, len(p.Sites))}
	for k, s := range p.Sites {
		l.siteNodes[k] = g.Index(g.X.FindCell(s.X), g.Y.FindCell(s.Y))
	}
	return l
}

// cacheMask marks, per cell index of g, the cells whose center lies in
// a cache unit of the problem's floorplan.
func cacheMask(p *Problem, g *mesh.Grid2D) []bool {
	mask := make([]bool, g.NumCells())
	for j := 0; j < g.NY(); j++ {
		for i := 0; i < g.NX(); i++ {
			u := p.Floorplan.UnitAt(g.X.Centers[i], g.Y.Centers[j])
			mask[g.Index(i, j)] = u != nil && u.Kind.IsCache()
		}
	}
	return mask
}

// solution extracts the Solution fields from a voltage vector, which
// the Solution takes over as its field.
func (l *layout) solution(v []float64, totalLoad, supply float64) *Solution {
	g := l.g
	sol := &Solution{
		Grid:         g,
		V:            &mesh.Field2D{Grid: g, Data: v},
		MinV:         math.Inf(1),
		MaxV:         math.Inf(-1),
		MinVCache:    math.Inf(1),
		TotalLoad:    totalLoad,
		SiteCurrents: make([]float64, len(l.sites)),
	}
	for j := 0; j < g.NY(); j++ {
		for i := 0; i < g.NX(); i++ {
			val := v[g.Index(i, j)]
			if val < sol.MinV {
				sol.MinV = val
			}
			if val > sol.MaxV {
				sol.MaxV = val
			}
			if l.cache[g.Index(i, j)] && val < sol.MinVCache {
				sol.MinVCache = val
				sol.WorstX, sol.WorstY = g.X.Centers[i], g.Y.Centers[j]
			}
		}
	}
	for k, node := range l.siteNodes {
		sol.SiteCurrents[k] = (supply - v[node]) / l.sites[k].Resistance
	}
	return sol
}

// NewSession validates the problem and assembles the conductance matrix
// once. The problem's LoadDensity and Supply act as defaults for the
// package-level Solve; Session.Solve takes both per call.
func NewSession(p *Problem) (*Session, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.grid()
	n := g.NumCells()
	l := newLayout(p, g)
	co := num.NewCOO(n, n)
	// Four stamps per laterally adjacent node pair, one per source.
	co.Grow(4*((g.NX()-1)*g.NY()+g.NX()*(g.NY()-1)) + len(l.siteNodes))
	// Mesh conductances: between laterally adjacent nodes,
	// G = (w_perp / d) / Rs.
	for j := 0; j < g.NY(); j++ {
		for i := 0; i < g.NX(); i++ {
			row := g.Index(i, j)
			if i < g.NX()-1 {
				cond := (g.Y.Widths[j] / g.X.CenterSpacing(i)) / p.SheetResistance
				col := g.Index(i+1, j)
				co.Add(row, row, cond)
				co.Add(col, col, cond)
				co.Add(row, col, -cond)
				co.Add(col, row, -cond)
			}
			if j < g.NY()-1 {
				cond := (g.X.Widths[i] / g.Y.CenterSpacing(j)) / p.SheetResistance
				col := g.Index(i, j+1)
				co.Add(row, row, cond)
				co.Add(col, col, cond)
				co.Add(row, col, -cond)
				co.Add(col, row, -cond)
			}
		}
	}
	// Sources: conductance to the fixed supply (the supply level itself
	// is RHS-only).
	for k, node := range l.siteNodes {
		co.Add(node, node, 1/p.Sites[k].Resistance)
	}
	a := co.ToCSR()
	shape := num.GridShape{NX: g.NX(), NY: g.NY()}
	// The MNA stamps are symmetric by construction: CG without a scan.
	// The grid shape lets the preconditioner rule pick geometric
	// multigrid for the default 106x85 grid and above.
	solver := num.NewSparseSolverSymmetric(a, true, num.IterOptions{Tol: 1e-11, Shape: &shape})
	return &Session{
		layout: l, p: p, solver: solver,
		b: make([]float64, n), x: make([]float64, n),
	}, nil
}

// Solve computes the DC operating point for the given load map and
// supply level, warm-starting from the previous call's voltage field.
func (s *Session) Solve(load *mesh.Field2D, supply float64) (*Solution, error) {
	return s.solveWith(load, supply, &s.warm)
}

// checkInputs validates one (load, supply) pair against the session
// grid.
func (s *Session) checkInputs(load *mesh.Field2D, supply float64) error {
	if load == nil {
		return fmt.Errorf("pdn: nil load density")
	}
	if supply <= 0 {
		return fmt.Errorf("pdn: nonpositive supply %g", supply)
	}
	if load.Grid.NX() != s.g.NX() || load.Grid.NY() != s.g.NY() {
		return fmt.Errorf("pdn: load density grid %dx%d does not match solve grid %dx%d",
			load.Grid.NX(), load.Grid.NY(), s.g.NX(), s.g.NY())
	}
	return nil
}

// fillRHS writes the MNA right-hand side for (load, supply) into dst —
// the session RHS for a single solve, or one column of a batched block.
func (s *Session) fillRHS(dst []float64, load *mesh.Field2D, supply float64) {
	g := s.g
	for j := 0; j < g.NY(); j++ {
		for i := 0; i < g.NX(); i++ {
			dst[g.Index(i, j)] = -load.At(i, j) * g.CellArea(i, j)
		}
	}
	for k, node := range s.siteNodes {
		dst[node] += supply / s.p.Sites[k].Resistance
	}
}

// buildSolution extracts the Solution from a solved voltage vector (one
// column of a batched block, or the session vector). The Solution owns
// a fresh copy of the field.
func (s *Session) buildSolution(x []float64, load *mesh.Field2D, supply float64) *Solution {
	g := s.g
	totalLoad := 0.0
	for j := 0; j < g.NY(); j++ {
		for i := 0; i < g.NX(); i++ {
			totalLoad += load.At(i, j) * g.CellArea(i, j)
		}
	}
	return s.solution(append([]float64(nil), x...), totalLoad, supply)
}

func (s *Session) solveWith(load *mesh.Field2D, supply float64, warm *num.WarmStart) (*Solution, error) {
	if err := s.checkInputs(load, supply); err != nil {
		return nil, err
	}
	s.fillRHS(s.b, load, supply)
	if !warm.Seed(s.x) {
		num.Fill(s.x, supply) // cold start at the supply level
	}
	if _, err := s.solver.Solve(s.b, s.x); err != nil {
		warm.Invalidate()
		return nil, fmt.Errorf("pdn: grid solve failed: %w", err)
	}
	warm.Save(s.x)
	return s.buildSolution(s.x, load, supply), nil
}

// batchWidth caps how many right-hand sides one block solve carries:
// beyond it the block's columns stop fitting cache alongside the
// matrix and the per-iteration reductions start to dominate, so wider
// batches are split into consecutive blocks.
const batchWidth = 8

// SolveBatch computes the DC operating points of several (load, supply)
// pairs in one batched block-CG solve per group of batchWidth: the
// systems share the session matrix, so one matrix traversal per Krylov
// iteration serves the whole group instead of each point traversing it
// alone. This is the sweep-chain path — neighboring sweep points differ
// only in their right-hand sides. Results match Solve point for point
// (same matrix, same tolerance); the session warm-start cache carries
// the last point's field to the next call, matching Solve's chaining.
func (s *Session) SolveBatch(loads []*mesh.Field2D, supplies []float64) ([]*Solution, error) {
	if len(loads) != len(supplies) {
		return nil, fmt.Errorf("pdn: %d loads vs %d supplies", len(loads), len(supplies))
	}
	if len(loads) == 0 {
		return nil, nil
	}
	for i := range loads {
		if err := s.checkInputs(loads[i], supplies[i]); err != nil {
			return nil, fmt.Errorf("pdn: batch point %d: %w", i, err)
		}
	}
	n := s.g.NumCells()
	out := make([]*Solution, 0, len(loads))
	for lo := 0; lo < len(loads); lo += batchWidth {
		hi := lo + batchWidth
		if hi > len(loads) {
			hi = len(loads)
		}
		k := hi - lo
		if k == 1 {
			sol, err := s.solveWith(loads[lo], supplies[lo], &s.warm)
			if err != nil {
				return nil, err
			}
			out = append(out, sol)
			continue
		}
		if cap(s.bb) < n*k {
			s.bb = make([]float64, n*k)
			s.xx = make([]float64, n*k)
		}
		bb, xx := s.bb[:n*k], s.xx[:n*k]
		seeded := s.warm.Seed(s.x)
		for j := 0; j < k; j++ {
			xj := xx[j*n : (j+1)*n]
			s.fillRHS(bb[j*n:(j+1)*n], loads[lo+j], supplies[lo+j])
			if seeded {
				copy(xj, s.x)
			} else {
				num.Fill(xj, supplies[lo+j])
			}
		}
		if _, err := s.solver.SolveBlock(bb, xx, k); err != nil {
			s.warm.Invalidate()
			return nil, fmt.Errorf("pdn: batched grid solve failed: %w", err)
		}
		for j := 0; j < k; j++ {
			out = append(out, s.buildSolution(xx[j*n:(j+1)*n], loads[lo+j], supplies[lo+j]))
		}
		copy(s.x, out[len(out)-1].V.Data)
		s.warm.Save(s.x)
	}
	return out, nil
}

// Solve computes the DC operating point. One-shot callers pay assembly
// and preconditioner setup per call; repeated solves over a fixed grid
// should hold a Session instead.
func Solve(p *Problem) (*Solution, error) {
	s, err := NewSession(p)
	if err != nil {
		return nil, err
	}
	return s.solveWith(p.LoadDensity, p.Supply, nil)
}
