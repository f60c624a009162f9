package num

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget without meeting the requested tolerance.
var ErrNoConvergence = errors.New("num: iterative solver did not converge")

// ErrMaxIter is the subset of ErrNoConvergence where the solver ran out
// of iteration budget, as opposed to a numerical breakdown. It wraps
// ErrNoConvergence, so errors.Is against either sentinel works;
// SparseSolver uses the distinction to surface budget exhaustion
// instead of retrying with a different method that would burn the same
// budget again.
var ErrMaxIter = fmt.Errorf("%w: iteration budget exhausted", ErrNoConvergence)

// Preconditioner applies an approximate inverse: z = M^{-1} r.
type Preconditioner interface {
	Apply(r, z []float64)
}

// IdentityPreconditioner is the trivial (no-op) preconditioner.
type IdentityPreconditioner struct{}

// Apply copies r into z.
func (IdentityPreconditioner) Apply(r, z []float64) { copy(z, r) }

// JacobiPreconditioner scales by the inverse diagonal of the matrix.
type JacobiPreconditioner struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal.
// Zero diagonal entries are treated as 1 (no scaling) so that the
// preconditioner is always well defined.
func NewJacobi(a *CSR) *JacobiPreconditioner {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v != 0 {
			inv[i] = 1 / v
		} else {
			inv[i] = 1
		}
	}
	return &JacobiPreconditioner{invDiag: inv}
}

// Apply computes z = D^{-1} r.
func (p *JacobiPreconditioner) Apply(r, z []float64) {
	for i, v := range r {
		z[i] = v * p.invDiag[i]
	}
}

// IterOptions configures the Krylov solvers.
type IterOptions struct {
	// Tol is the relative residual tolerance ||r|| / ||b||.
	// Defaults to 1e-10 if zero.
	Tol float64
	// MaxIter bounds the iteration count. Defaults to 10*n if zero,
	// clamped to [200, 20000] — an unbounded 10*n default on large
	// grids masks non-convergence behind minutes of wasted iterations,
	// so the budget is capped and exhaustion surfaces as ErrMaxIter.
	MaxIter int
	// M is the preconditioner; identity if nil. SparseSolver builds
	// one from the operator when nil (see NewSparseSolverSymmetric).
	M Preconditioner
	// Shape, when non-nil and covering the matrix, tells SparseSolver
	// the structured grid behind the unknowns, which a large operator
	// needs to get geometric multigrid; without it the solver uses
	// Jacobi (symmetric) or ILU(0) (nonsymmetric). Ignored by bare
	// CG/BiCGSTAB.
	Shape *GridShape
}

// defaultMaxIterCap bounds the derived 10*n iteration budget.
const defaultMaxIterCap = 20000

func (o IterOptions) withDefaults(n int) IterOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 200 {
			o.MaxIter = 200
		}
		if o.MaxIter > defaultMaxIterCap {
			o.MaxIter = defaultMaxIterCap
		}
	}
	if o.M == nil {
		o.M = IdentityPreconditioner{}
	}
	return o
}

// IterResult reports the outcome of an iterative solve.
type IterResult struct {
	Iterations int
	Residual   float64 // final relative residual
}

// CG solves the symmetric positive definite system A x = b with the
// preconditioned conjugate gradient method. x is used as the initial
// guess (a warm start from a nearby solution cuts the iteration count)
// and overwritten with the solution.
func CG(a *CSR, b, x []float64, opt IterOptions) (IterResult, error) {
	return CGWith(a, b, x, opt, nil)
}

// CGWith is CG with caller-owned scratch: passing the same Workspace to
// repeated solves makes the steady-state loop allocation-free. A nil
// workspace allocates fresh scratch (identical to CG).
func CGWith(a *CSR, b, x []float64, opt IterOptions, ws *Workspace) (IterResult, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n || len(x) != n {
		return IterResult{}, ErrShape
	}
	opt = opt.withDefaults(n)
	if ws == nil {
		ws = &Workspace{}
	}
	r := ws.vec(wsR, n)
	z := ws.vec(wsZ, n)
	p := ws.vec(wsP, n)
	ap := ws.vec(wsAP, n)

	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		Fill(x, 0)
		return IterResult{0, 0}, nil
	}
	opt.M.Apply(r, z)
	copy(p, z)
	rz := Dot(r, z)
	res := Norm2(r) / bnorm
	if res <= opt.Tol {
		return IterResult{0, res}, nil
	}
	for it := 1; it <= opt.MaxIter; it++ {
		a.MulVec(p, ap)
		pap := Dot(p, ap)
		if pap == 0 || math.IsNaN(pap) {
			return IterResult{it, res}, fmt.Errorf("%w: CG breakdown (pAp=%g)", ErrNoConvergence, pap)
		}
		alpha := rz / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		res = Norm2(r) / bnorm
		if res <= opt.Tol {
			return IterResult{it, res}, nil
		}
		opt.M.Apply(r, z)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return IterResult{opt.MaxIter, res}, fmt.Errorf("%w: CG after %d iters, residual %.3e", ErrMaxIter, opt.MaxIter, res)
}

// BiCGSTABWith solves the general (nonsymmetric) system A x = b with
// the preconditioned stabilized bi-conjugate gradient method. x is the
// initial guess (warm-startable) and is overwritten with the solution.
// Passing the same Workspace to repeated solves makes the steady-state
// loop allocation-free; a nil workspace allocates fresh scratch.
func BiCGSTABWith(a *CSR, b, x []float64, opt IterOptions, ws *Workspace) (IterResult, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n || len(x) != n {
		return IterResult{}, ErrShape
	}
	opt = opt.withDefaults(n)
	if ws == nil {
		ws = &Workspace{}
	}
	r := ws.vec(wsR, n)
	rhat := ws.vec(wsZ, n)
	p := ws.vec(wsP, n)
	v := ws.vec(wsAP, n)
	s := ws.vec(wsS, n)
	t := ws.vec(wsT, n)
	phat := ws.vec(wsPhat, n)
	shat := ws.vec(wsShat, n)

	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		Fill(x, 0)
		return IterResult{0, 0}, nil
	}
	res := Norm2(r) / bnorm
	if res <= opt.Tol {
		return IterResult{0, res}, nil
	}
	copy(rhat, r)
	var rho, alpha, omega float64 = 1, 1, 1
	for it := 1; it <= opt.MaxIter; it++ {
		rhoNew := Dot(rhat, r)
		if rhoNew == 0 {
			return IterResult{it, res}, fmt.Errorf("%w: BiCGSTAB breakdown (rho=0)", ErrNoConvergence)
		}
		if it == 1 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		opt.M.Apply(p, phat)
		a.MulVec(phat, v)
		den := Dot(rhat, v)
		if den == 0 {
			return IterResult{it, res}, fmt.Errorf("%w: BiCGSTAB breakdown (rhat.v=0)", ErrNoConvergence)
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if sr := Norm2(s) / bnorm; sr <= opt.Tol {
			Axpy(alpha, phat, x)
			return IterResult{it, sr}, nil
		}
		opt.M.Apply(s, shat)
		a.MulVec(shat, t)
		tt := Dot(t, t)
		if tt == 0 {
			return IterResult{it, res}, fmt.Errorf("%w: BiCGSTAB breakdown (t.t=0)", ErrNoConvergence)
		}
		omega = Dot(t, s) / tt
		if omega == 0 {
			return IterResult{it, res}, fmt.Errorf("%w: BiCGSTAB breakdown (omega=0)", ErrNoConvergence)
		}
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		res = Norm2(r) / bnorm
		if res <= opt.Tol {
			return IterResult{it, res}, nil
		}
	}
	return IterResult{opt.MaxIter, res}, fmt.Errorf("%w: BiCGSTAB after %d iters, residual %.3e", ErrMaxIter, opt.MaxIter, res)
}
