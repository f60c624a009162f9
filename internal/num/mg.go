package num

import (
	"fmt"
	"math"

	"bright/internal/obs"
)

// Multigrid telemetry (process-wide; see internal/obs). Setup is counted
// per hierarchy construction, cycles per preconditioner application —
// the ratio is the reuse factor that justifies caching MG per operator.
var (
	mgSetupsGMG = obs.Default.Counter("bright_mg_setups_total",
		"Multigrid hierarchy constructions by kind.", obs.L("kind", "gmg"))
	mgCycles = obs.Default.Counter("bright_mg_cycles_total",
		"Multigrid V-cycles executed (one per preconditioner application).")
	mgLevelsBuilt = obs.Default.Counter("bright_mg_levels_total",
		"Multigrid levels constructed across all setups (levels per setup = depth of that hierarchy).")
	mgCoarseHeavySmooths = obs.Default.Counter("bright_mg_coarse_heavy_smooths_total",
		"Coarsest-level visits that fell back to heavy smoothing because the direct LU was unavailable (singular coarse operator).")
)

// GridShape describes the structured grid behind a matrix whose unknowns
// are ordered row-major with X fastest (mesh.Grid2D/Grid3D Index order).
// NZ <= 1 means a 2D grid.
type GridShape struct {
	NX, NY, NZ int
}

func (s GridShape) nz() int {
	if s.NZ <= 1 {
		return 1
	}
	return s.NZ
}

// Cells returns the total unknown count the shape implies.
func (s GridShape) Cells() int { return s.NX * s.NY * s.nz() }

// covers reports whether the shape describes exactly a's unknowns.
func (s GridShape) covers(a *CSR) bool {
	return s.NX > 0 && s.NY > 0 && s.Cells() == a.Rows
}

// check reports whether a is square and the shape describes exactly
// its unknowns.
func (s GridShape) check(a *CSR) error {
	if a.Rows != a.Cols {
		return ErrShape
	}
	if !s.covers(a) {
		return fmt.Errorf("num: grid shape %dx%dx%d does not cover %d unknowns", s.NX, s.NY, s.nz(), a.Rows)
	}
	return nil
}

// coarsen halves every axis (cell-centered: ceil(n/2)).
func (s GridShape) coarsen() GridShape {
	h := func(n int) int { return (n + 1) / 2 }
	return GridShape{NX: h(s.NX), NY: h(s.NY), NZ: h(s.nz())}
}

// coarsenXY halves X and Y (cell-centered: ceil(n/2)) and keeps every
// plane.
func (s GridShape) coarsenXY() GridShape {
	h := func(n int) int { return (n + 1) / 2 }
	return GridShape{NX: h(s.NX), NY: h(s.NY), NZ: s.NZ}
}

// Multigrid hierarchy parameters. Symmetric V(1,1) cycles with
// damped-Jacobi smoothing and R = P^T keep the preconditioner SPD for
// SPD operators, which CG requires.
const (
	// mgOmega is the Jacobi damping factor.
	mgOmega = 0.8
	// mgCoarsestN stops coarsening once a level has at most this many
	// unknowns; that level is solved directly by dense LU.
	mgCoarsestN = 64
	// mgMaxLevels bounds the hierarchy depth.
	mgMaxLevels = 16
	// mgCoarseSweeps is the damped-Jacobi sweep count on a coarsest
	// level whose LU is unavailable (four times a V(1,1) cycle's two).
	mgCoarseSweeps = 8
	// mgSemiCoarsestN stops the semicoarsened hierarchy once a level has
	// at most this many unknowns. Every plane survives coarsening, so
	// its coarsest level is a few cells per plane times the plane count;
	// a dense LU of that size costs less than one fine smoothing sweep.
	mgSemiCoarsestN = 200
)

// mgLevel is one rung of the hierarchy. In the symmetric hierarchy p
// maps the next-coarser level's correction up to this level, r (= p^T)
// maps this level's residual down and invDiag drives the Jacobi
// smoother. In the semicoarsened hierarchy agg names each row's
// aggregate on the next-coarser level (piecewise-constant transfers)
// and ilu is the smoother. Transfers are nil on the coarsest level.
// The x/b/res buffers are sized at setup so Apply never allocates; the
// finest semicoarsened level has no x or b (it runs on Apply's r and
// z).
type mgLevel struct {
	a       *CSR
	invDiag []float64
	p, r    *CSR
	ilu     *ILU0
	agg     []int32
	x, b    []float64
	res     []float64
}

// Multigrid is a geometric V-cycle preconditioner over a fixed operator
// on a structured grid, in one of two forms: the symmetric hierarchy of
// NewGMG or the semicoarsened one of NewSemiGMG. Setup builds the full
// hierarchy — transfers, Galerkin coarse operators A_c = P^T A P,
// smoothers and a dense LU of the coarsest level — once; Apply then
// runs allocation-free V-cycles, so a Multigrid cached per operator
// (PDN grid, electrode potential) costs setup exactly once. Apply is
// not safe for concurrent use; SparseSolver serializes solves, which
// covers the intended use.
type Multigrid struct {
	levels []*mgLevel
	coarse *LU
}

// Levels reports the hierarchy depth, including the coarsest level.
func (m *Multigrid) Levels() int { return len(m.levels) }

// NewGMG builds a geometric multigrid hierarchy for a matrix discretized
// on the given structured grid: cell-centered bilinear (trilinear in 3D)
// prolongation, full-weighting restriction R = P^T, and Galerkin coarse
// operators, re-coarsening by 2 per axis until mgCoarsestN.
func NewGMG(a *CSR, shape GridShape) (*Multigrid, error) {
	if err := shape.check(a); err != nil {
		return nil, err
	}
	m := &Multigrid{}
	cur := a
	curShape := shape
	for len(m.levels) < mgMaxLevels-1 && cur.Rows > mgCoarsestN {
		next := curShape.coarsen()
		if next.Cells() >= cur.Rows {
			break // coarsening stalled (grid already 1x1x1-ish)
		}
		p := interpolation(curShape, next)
		if err := m.pushLevel(cur, p); err != nil {
			return nil, err
		}
		cur = MatMul(m.levels[len(m.levels)-1].r, MatMul(cur, p))
		curShape = next
	}
	if err := m.finish(cur); err != nil {
		return nil, err
	}
	mgSetupsGMG.Inc()
	mgLevelsBuilt.Add(uint64(len(m.levels)))
	return m, nil
}

// pushLevel appends a non-coarsest level with prolongation p.
func (m *Multigrid) pushLevel(a *CSR, p *CSR) error {
	inv, err := invDiagOf(a)
	if err != nil {
		return err
	}
	m.levels = append(m.levels, &mgLevel{
		a: a, invDiag: inv, p: p, r: p.Transpose(),
		x: make([]float64, a.Rows), b: make([]float64, a.Rows), res: make([]float64, a.Rows),
	})
	return nil
}

// finish installs the coarsest level and its direct factorization.
func (m *Multigrid) finish(a *CSR) error {
	inv, err := invDiagOf(a)
	if err != nil {
		return err
	}
	m.levels = append(m.levels, &mgLevel{
		a: a, invDiag: inv,
		x: make([]float64, a.Rows), b: make([]float64, a.Rows), res: make([]float64, a.Rows),
	})
	lu, err := FactorLU(a.ToDense())
	if err != nil {
		// A singular coarse operator (e.g. a pure-Neumann network whose
		// null space survived coarsening) falls back to heavy smoothing
		// on that level instead of failing the whole hierarchy.
		m.coarse = nil
		return nil
	}
	m.coarse = lu
	return nil
}

func invDiagOf(a *CSR) ([]float64, error) {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("num: multigrid needs a nonzero finite diagonal (row %d has %g)", i, v)
		}
		inv[i] = 1 / v
	}
	return inv, nil
}

// NewSemiGMG builds the multigrid hierarchy for a nonsymmetric operator
// on a structured grid of thin planes (the thermal networks). It
// coarsens X and Y by 2 and keeps every plane, because the planes are
// coupled far more strongly through their thin layers than across
// them. Its transfers are piecewise constant over 2×2 aggregates, with
// the Galerkin coarse operator summed straight from the fine rows (a
// bilinear Galerkin product can leave a coarse row without a diagonal
// on these operators). Each level is smoothed by ILU(0) after its
// coarse correction, and every level but the finest before it too (see
// semiCycle); the coarsest (at most mgSemiCoarsestN unknowns) is solved
// by dense LU. fine is the ILU(0)
// factor of a when the caller has already built it (nil factors it
// here); the coarser levels are factored here. A failed factorization
// fails the build.
func NewSemiGMG(a *CSR, shape GridShape, fine *ILU0) (*Multigrid, error) {
	if err := shape.check(a); err != nil {
		return nil, err
	}
	m := &Multigrid{}
	cur, curShape, smoother := a, shape, fine
	for len(m.levels) < mgMaxLevels-1 && cur.Rows > mgSemiCoarsestN {
		next := curShape.coarsenXY()
		if next.Cells() >= cur.Rows {
			break // the planes are already one cell wide
		}
		if smoother == nil {
			f, err := NewILU0(cur)
			if err != nil {
				return nil, err
			}
			smoother = f
		}
		lev := &mgLevel{a: cur, ilu: smoother, agg: aggregates(curShape, next), res: make([]float64, cur.Rows)}
		if len(m.levels) > 0 {
			lev.x, lev.b = make([]float64, cur.Rows), make([]float64, cur.Rows)
		}
		m.levels = append(m.levels, lev)
		cur = aggregateGalerkin(cur, lev.agg, curShape, next)
		curShape, smoother = next, nil
	}
	lu, err := FactorLU(cur.ToDense())
	if err != nil {
		return nil, err
	}
	m.levels = append(m.levels, &mgLevel{a: cur, x: make([]float64, cur.Rows), b: make([]float64, cur.Rows)})
	m.coarse = lu
	mgSetupsGMG.Inc()
	mgLevelsBuilt.Add(uint64(len(m.levels)))
	return m, nil
}

// aggregates maps every cell of the fine shape to its 2×2 aggregate in
// the same plane of coarse (= fine.coarsenXY()).
func aggregates(fine, coarse GridShape) []int32 {
	agg := make([]int32, 0, fine.Cells())
	for k := 0; k < fine.nz(); k++ {
		for j := 0; j < fine.NY; j++ {
			for i := 0; i < fine.NX; i++ {
				agg = append(agg, int32((k*coarse.NY+j/2)*coarse.NX+i/2))
			}
		}
	}
	return agg
}

// aggregateGalerkin returns P^T A P for the piecewise-constant
// prolongation P of agg = aggregates(fine, coarse): coarse entry (I, J) sums
// every fine entry whose row lies in aggregate I and whose column lies
// in aggregate J. It is summed row by row from a's own entries, in one
// counting pass and one filling pass, so the result is sized exactly;
// columns ascend within each row.
func aggregateGalerkin(a *CSR, agg []int32, fine, coarse GridShape) *CSR {
	nc := coarse.Cells()
	// children calls visit with every fine row of coarse row I.
	children := func(I int, visit func(row int)) {
		ci, cj, k := I%coarse.NX, (I/coarse.NX)%coarse.NY, I/(coarse.NX*coarse.NY)
		for j := 2 * cj; j < min(2*cj+2, fine.NY); j++ {
			for i := 2 * ci; i < min(2*ci+2, fine.NX); i++ {
				visit((k*fine.NY+j)*fine.NX + i)
			}
		}
	}
	c := &CSR{Rows: nc, Cols: nc, RowPtr: make([]int, nc+1)}
	// mark[J] == I+1 once coarse column J has been seen in row I.
	mark := make([]int, nc)
	for I := 0; I < nc; I++ {
		count := 0
		children(I, func(row int) {
			for p := a.RowPtr[row]; p < a.RowPtr[row+1]; p++ {
				if J := agg[a.ColIdx[p]]; mark[J] != I+1 {
					mark[J] = I + 1
					count++
				}
			}
		})
		c.RowPtr[I+1] = c.RowPtr[I] + count
	}
	c.ColIdx = make([]int, c.RowPtr[nc])
	c.Val = make([]float64, c.RowPtr[nc])
	// slot[J]-1 is coarse column J's position in the row being filled
	// when slot[J] > the row's start, a stale earlier row's otherwise.
	slot := mark
	clear(slot)
	for I := 0; I < nc; I++ {
		lo, end := c.RowPtr[I], c.RowPtr[I]
		children(I, func(row int) {
			for p := a.RowPtr[row]; p < a.RowPtr[row+1]; p++ {
				J := int(agg[a.ColIdx[p]])
				if s := slot[J]; s > lo {
					c.Val[s-1] += a.Val[p]
					continue
				}
				c.ColIdx[end], c.Val[end] = J, a.Val[p]
				end++
				slot[J] = end
			}
		})
		sortRow(c.ColIdx[lo:end], c.Val[lo:end])
	}
	return c
}

// sortRow sorts one short CSR row by column (insertion sort), carrying
// the values along.
func sortRow(cols []int, vals []float64) {
	for t := 1; t < len(cols); t++ {
		col, v := cols[t], vals[t]
		u := t
		for ; u > 0 && cols[u-1] > col; u-- {
			cols[u], vals[u] = cols[u-1], vals[u-1]
		}
		cols[u], vals[u] = col, v
	}
}

// interpolation builds the cell-centered bilinear/trilinear prolongation
// from the coarse shape to the fine shape as a CSR (fine rows x coarse
// cols). Each fine cell interpolates from its parent coarse cell and the
// axis neighbours its center leans toward, with 1D weights (3/4, 1/4)
// tensored across axes; at domain boundaries the stencil clamps to
// injection.
func interpolation(fine, coarse GridShape) *CSR {
	ax := axisWeights(fine.NX, coarse.NX)
	ay := axisWeights(fine.NY, coarse.NY)
	az := axisWeights(fine.nz(), coarse.nz())
	co := NewCOO(fine.Cells(), coarse.Cells())
	cIdx := func(i, j, k int) int { return (k*coarse.NY+j)*coarse.NX + i }
	row := 0
	for k := 0; k < fine.nz(); k++ {
		for j := 0; j < fine.NY; j++ {
			for i := 0; i < fine.NX; i++ {
				for _, wz := range az[k] {
					for _, wy := range ay[j] {
						for _, wx := range ax[i] {
							co.Add(row, cIdx(wx.i, wy.i, wz.i), wx.w*wy.w*wz.w)
						}
					}
				}
				row++
			}
		}
	}
	return co.ToCSR()
}

// axisEntry is one (coarse index, weight) contribution along an axis.
type axisEntry struct {
	i int
	w float64
}

// axisWeights returns, per fine cell, the 1D cell-centered linear
// interpolation stencil: parent coarse cell with weight 3/4 and the
// neighbour the fine center leans toward with 1/4, clamped to injection
// at the boundary.
func axisWeights(n, nc int) [][]axisEntry {
	out := make([][]axisEntry, n)
	for i := 0; i < n; i++ {
		c := i / 2
		if c >= nc {
			c = nc - 1
		}
		nb := c + 1
		if i%2 == 0 {
			nb = c - 1
		}
		if nb < 0 || nb >= nc {
			out[i] = []axisEntry{{i: c, w: 1}}
		} else {
			out[i] = []axisEntry{{i: c, w: 0.75}, {i: nb, w: 0.25}}
		}
	}
	return out
}
