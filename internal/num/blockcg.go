package num

import (
	"fmt"
	"math"

	"bright/internal/obs"
)

// Multi-RHS telemetry (process-wide; see internal/obs). The row counter
// is the currency of the block solver's win: a block traversal counts
// its rows once however many right-hand sides ride it, so comparing the
// counter across a sequential and a batched sweep chain measures the
// amortization directly.
var (
	spmvRowsTraversed = obs.Default.Counter("bright_spmv_rows_total",
		"CSR rows traversed by SpMV kernels (a k-RHS block traversal counts its rows once).")
	blockRHSSolved = obs.Default.Counter("bright_blockcg_rhs_total",
		"Right-hand sides solved through the batched block-CG path.")
)

// MulVecBlock computes Y = m*X for k right-hand sides in one traversal
// of the matrix. X and Y hold the k vectors column-major: column j
// occupies x[j*Cols : (j+1)*Cols], so every column keeps the contiguous
// layout (and exact summation order) of a MulVec operand while the
// matrix entries are read once per row for all k columns. len(x) must
// be Cols*k and len(y) Rows*k.
func (m *CSR) MulVecBlock(x, y []float64, k int) {
	if k <= 0 || len(x) != m.Cols*k || len(y) != m.Rows*k {
		panic(ErrShape)
	}
	if k == 1 {
		m.MulVec(x, y)
		return
	}
	spmvRowsTraversed.Add(uint64(m.Rows))
	mulVecBlockRange(m, x, y, k, 0, m.Rows)
}

// blockAp computes ap_j = A p_j and pap_j = <p_j, Ap_j> for every
// active column in one traversal that fuses the dot into the SpMV pass
// (each row's Ap value is consumed while still in register, so p and ap
// are never re-read). Inactive columns are skipped — their pap entry is
// zeroed and their ap left stale, which is fine because frozen columns
// do no further updates.
func blockAp(a *CSR, p, ap []float64, k int, active []bool, pap []float64) {
	spmvRowsTraversed.Add(uint64(a.Rows))
	mulVecBlockDotRange(a, p, ap, k, active, pap, 0, a.Rows)
}

// BlockWorkspace holds the scratch of BlockCG so repeated batched
// solves against same-sized blocks do not reallocate. A zero value is
// ready to use. Not safe for concurrent use.
type BlockWorkspace struct {
	r, z, p, ap []float64 // n*k column-major blocks
	rz, bnorm   []float64 // per-column recurrence state
	res         []float64
	pap         []float64 // per-column <p, Ap> from the fused traversal
	active      []bool
	perRHS      []IterResult // backs BlockResult.PerRHS (reused per solve)
}

// NewBlockWorkspace returns a workspace pre-sized for n unknowns and k
// right-hand sides.
func NewBlockWorkspace(n, k int) *BlockWorkspace {
	w := &BlockWorkspace{}
	w.size(n, k)
	return w
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func (w *BlockWorkspace) size(n, k int) {
	w.r = grow(w.r, n*k)
	w.z = grow(w.z, n*k)
	w.p = grow(w.p, n*k)
	w.ap = grow(w.ap, n*k)
	w.rz = grow(w.rz, k)
	w.bnorm = grow(w.bnorm, k)
	w.res = grow(w.res, k)
	w.pap = grow(w.pap, k)
	if cap(w.active) < k {
		w.active = make([]bool, k)
	}
	w.active = w.active[:k]
	if cap(w.perRHS) < k {
		w.perRHS = make([]IterResult, k)
	}
	w.perRHS = w.perRHS[:k]
	for j := range w.perRHS {
		w.perRHS[j] = IterResult{}
	}
}

// BlockResult reports a batched solve: per-column iteration counts and
// residuals, plus the shared traversal count.
type BlockResult struct {
	// PerRHS holds each column's iteration count and final relative
	// residual, in column order. It aliases the workspace (valid until
	// the workspace's next solve) so steady-state solves stay
	// allocation-free.
	PerRHS []IterResult
	// Iterations is the block iteration count (the slowest column).
	Iterations int
}

// BlockCG solves the k symmetric positive definite systems A x_j = b_j
// together: k independent preconditioned-CG recurrences (per-column
// alpha/beta, each running the exact update sequence of CGWith on its
// contiguous column slice, so every column's iterates match a
// sequential solve bit for bit) sharing one SpMV traversal per
// iteration through MulVecBlock. b and x hold the right-hand sides and
// initial guesses column-major (column j at [j*n : (j+1)*n], see
// MulVecBlock); x is overwritten with the solutions. A column that
// converges freezes — its preconditioner and vector work stops — while
// the block traversal keeps serving the rest, which is where a sweep
// chain's amortization comes from.
//
// The preconditioner sees plain contiguous column vectors, so any
// Preconditioner (Jacobi, multigrid) works unchanged.
func BlockCG(a *CSR, b, x []float64, k int, opt IterOptions, ws *BlockWorkspace) (BlockResult, error) {
	n := a.Rows
	if a.Cols != n || k <= 0 || len(b) != n*k || len(x) != n*k {
		return BlockResult{}, ErrShape
	}
	opt = opt.withDefaults(n)
	if ws == nil {
		ws = &BlockWorkspace{}
	}
	ws.size(n, k)
	blockRHSSolved.Add(uint64(k))

	col := func(s []float64, j int) []float64 { return s[j*n : (j+1)*n] }

	out := BlockResult{PerRHS: ws.perRHS}
	a.MulVecBlock(x, ws.r, k)
	for i := range ws.r {
		ws.r[i] = b[i] - ws.r[i]
	}
	remaining := 0
	for j := 0; j < k; j++ {
		rj := col(ws.r, j)
		ws.bnorm[j] = Norm2(col(b, j))
		if ws.bnorm[j] == 0 {
			Fill(col(x, j), 0)
			ws.active[j] = false
			continue
		}
		ws.res[j] = Norm2(rj) / ws.bnorm[j]
		out.PerRHS[j].Residual = ws.res[j]
		if ws.res[j] <= opt.Tol {
			ws.active[j] = false
			continue
		}
		ws.active[j] = true
		remaining++
		opt.M.Apply(rj, col(ws.z, j))
		copy(col(ws.p, j), col(ws.z, j))
		ws.rz[j] = Dot(rj, col(ws.z, j))
	}
	jp, _ := opt.M.(*JacobiPreconditioner)
	var firstErr error
	for it := 1; it <= opt.MaxIter && remaining > 0; it++ {
		out.Iterations = it
		// One traversal serves every still-active column; frozen columns
		// are skipped entirely (their results are already final). The
		// serial traversal folds the <p, Ap> reductions into the SpMV
		// pass so p and Ap are not re-read from memory.
		blockAp(a, ws.p, ws.ap, k, ws.active, ws.pap)
		for j := 0; j < k; j++ {
			if !ws.active[j] {
				continue
			}
			pj, apj, rj, xj, zj := col(ws.p, j), col(ws.ap, j), col(ws.r, j), col(x, j), col(ws.z, j)
			pap := ws.pap[j]
			if pap == 0 || math.IsNaN(pap) {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: block CG breakdown on rhs %d (pAp=%g)", ErrNoConvergence, j, pap)
				}
				ws.active[j] = false
				remaining--
				out.PerRHS[j] = IterResult{it, ws.res[j]}
				continue
			}
			alpha := ws.rz[j] / pap
			// Fused x/r update carrying the residual's max magnitude —
			// the first half of the overflow-safe Norm2 — so the two
			// Axpy passes and the norm's max scan cost one traversal.
			// Per element this is exactly Axpy(alpha, p, x),
			// Axpy(-alpha, ap, r), then Norm2(r): (-a)*b == -(a*b) in
			// IEEE arithmetic, so the iterates still match a sequential
			// CGWith solve bit for bit when run serial.
			maxr := 0.0
			for i := range pj {
				xj[i] += alpha * pj[i]
				rj[i] -= alpha * apj[i]
				if av := math.Abs(rj[i]); av > maxr {
					maxr = av
				}
			}
			rnorm := 0.0
			if maxr > 0 {
				s := 0.0
				for _, v := range rj {
					t := v / maxr
					s += t * t
				}
				rnorm = maxr * math.Sqrt(s)
			}
			ws.res[j] = rnorm / ws.bnorm[j]
			if ws.res[j] <= opt.Tol {
				ws.active[j] = false
				remaining--
				out.PerRHS[j] = IterResult{it, ws.res[j]}
				continue
			}
			// Preconditioner apply fused with the <r, z> reduction when
			// the preconditioner is pointwise Jacobi (the common sweep
			// chain case); anything else goes through the interface.
			var rzNew float64
			if jp != nil {
				s := 0.0
				for i, v := range rj {
					zv := v * jp.invDiag[i]
					zj[i] = zv
					s += v * zv
				}
				rzNew = s
			} else {
				opt.M.Apply(rj, zj)
				rzNew = Dot(rj, zj)
			}
			beta := rzNew / ws.rz[j]
			ws.rz[j] = rzNew
			for i := range pj {
				pj[i] = zj[i] + beta*pj[i]
			}
			out.PerRHS[j] = IterResult{it, ws.res[j]}
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	if remaining > 0 {
		return out, fmt.Errorf("%w: block CG after %d iters (%d of %d rhs unconverged)",
			ErrMaxIter, out.Iterations, remaining, k)
	}
	return out, nil
}
