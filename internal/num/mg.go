package num

import (
	"fmt"

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

// coarsenXY halves X and Y (cell-centered: ceil(n/2)) and keeps every
// plane.
func (s GridShape) coarsenXY() GridShape {
	h := func(n int) int { return (n + 1) / 2 }
	return GridShape{NX: h(s.NX), NY: h(s.NY), NZ: s.NZ}
}

// Multigrid hierarchy parameters.
const (
	// mgMaxLevels bounds the hierarchy depth.
	mgMaxLevels = 16
	// mgSemiCoarsestN stops coarsening once a level has at most this
	// many unknowns. Every plane survives coarsening, so the coarsest
	// level is a few cells per plane times the plane count; a dense LU
	// of that size costs less than one fine smoothing sweep.
	mgSemiCoarsestN = 200
)

// mgLevel is one rung of the hierarchy: agg names each row's aggregate
// on the next-coarser level (piecewise-constant transfers) and ilu is
// the smoother; both are nil on the coarsest level. The x/b/res buffers
// are sized at setup so Apply never allocates; the finest level has no
// x or b (it runs on Apply's r and z).
type mgLevel struct {
	a    *CSR
	ilu  *ILU0
	agg  []int32
	x, b []float64
	res  []float64
}

// Multigrid is a geometric V-cycle preconditioner over a fixed operator
// on a structured grid (see NewSemiGMG). Setup builds the full
// hierarchy — aggregates, Galerkin coarse operators A_c = P^T A P,
// ILU(0) smoothers and a dense LU of the coarsest level — once; Apply
// then runs allocation-free V-cycles, so a Multigrid cached per
// operator (thermal network, PDN grid) costs setup exactly once. Apply
// is not safe for concurrent use; SparseSolver serializes solves,
// which covers the intended use.
type Multigrid struct {
	levels []*mgLevel
	coarse *LU
	// symmetric makes the finest level pre-smooth too, so the cycle is
	// a symmetric operator (CG needs one); see vcycle.
	symmetric bool
}

// Levels reports the hierarchy depth, including the coarsest level.
func (m *Multigrid) Levels() int { return len(m.levels) }

// NewSemiGMG builds the multigrid hierarchy for an operator on a
// structured grid: the thermal networks (thin planes, nonsymmetric)
// and the power grids (one plane, symmetric). It coarsens X and Y by 2
// and keeps every plane, because the planes are coupled far more
// strongly through their thin layers than across them. Its transfers
// are piecewise constant over 2×2 aggregates, with the Galerkin coarse
// operator summed straight from the fine rows (a bilinear Galerkin
// product can leave a coarse row without a diagonal on the thermal
// operators). Each level is smoothed by ILU(0) after its coarse
// correction, and before it too on every level but the finest of a
// nonsymmetric operator (see vcycle); the coarsest (at most
// mgSemiCoarsestN unknowns) is solved by dense LU. symmetric is the
// solver's symmetry decision: on a symmetric operator the cycle is
// itself symmetric, which CG requires. fine is the ILU(0) factor of a
// when the caller has already built it (nil factors it here); the
// coarser levels are factored here. A failed factorization fails the
// build.
func NewSemiGMG(a *CSR, shape GridShape, fine *ILU0, symmetric bool) (*Multigrid, error) {
	if err := shape.check(a); err != nil {
		return nil, err
	}
	m := &Multigrid{symmetric: symmetric}
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
