package num

import "bright/internal/obs"

// MGAutoThreshold is the unknown count at and above which a system with
// a covering grid shape gets the multigrid hierarchy on top of ILU(0).
// Below it, the single-level solves finish before MG setup would pay
// for itself.
const MGAutoThreshold = 4096

var (
	mgSetupFallbacks = obs.Default.Counter("bright_mg_setup_fallbacks_total",
		"Multigrid setups that failed and fell back to the plain ILU(0).")
	iluSetupFallbacks = obs.Default.Counter("bright_ilu_setup_fallbacks_total",
		"ILU(0) factorizations that failed and fell back to Jacobi.")
)

// buildPrecond picks the preconditioner from what the operator shows.
// An operator of at least MGAutoThreshold rows whose grid shape
// describes gets ILU(0) as the fine-level smoother of the multigrid
// hierarchy (NewSemiGMG), symmetric or not; below the threshold or
// without a shape, a nonsymmetric operator gets ILU(0) and a symmetric
// one Jacobi. A failed multigrid setup degrades to the plain ILU(0) and
// a failed ILU(0) factorization to Jacobi, each counted, rather than
// failing the solver build: the result is always usable, just possibly
// slower.
func buildPrecond(a *CSR, symmetric bool, shape *GridShape) Preconditioner {
	gridded := a.Rows >= MGAutoThreshold && shape != nil && shape.covers(a)
	if symmetric && !gridded {
		return NewJacobi(a)
	}
	f, err := NewILU0(a)
	if err != nil {
		iluSetupFallbacks.Inc()
		return NewJacobi(a)
	}
	if !gridded {
		return f
	}
	if m, err := NewSemiGMG(a, *shape, f, symmetric); err == nil {
		return m
	}
	mgSetupFallbacks.Inc()
	return f
}
