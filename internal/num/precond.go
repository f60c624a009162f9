package num

import "bright/internal/obs"

// MGAutoThreshold is the unknown count at and above which a system with
// a covering grid shape gets multigrid: the symmetric hierarchy instead
// of Jacobi, the semicoarsened one instead of plain ILU(0). Below it,
// the single-level solves finish before MG setup would pay for itself.
const MGAutoThreshold = 4096

var (
	mgSetupFallbacks = obs.Default.Counter("bright_mg_setup_fallbacks_total",
		"Multigrid setups that failed and fell back to the single-level preconditioner (Jacobi, or ILU(0) for a nonsymmetric operator).")
	iluSetupFallbacks = obs.Default.Counter("bright_ilu_setup_fallbacks_total",
		"ILU(0) factorizations that failed and fell back to Jacobi.")
)

// buildPrecond picks the preconditioner from what the operator shows.
// A symmetric a with at least MGAutoThreshold rows whose grid shape
// describes gets geometric multigrid (NewGMG); a nonsymmetric a gets
// ILU(0), wrapped as the fine-level smoother of the semicoarsened
// hierarchy (NewSemiGMG) under the same size and shape condition;
// anything else gets Jacobi. A failed multigrid setup degrades to the
// single-level choice and a failed ILU(0) factorization to Jacobi,
// each counted, rather than failing the solver build: the result is
// always usable, just possibly slower.
func buildPrecond(a *CSR, symmetric bool, shape *GridShape) Preconditioner {
	gridded := a.Rows >= MGAutoThreshold && shape != nil && shape.covers(a)
	switch {
	case symmetric && gridded:
		if m, err := NewGMG(a, *shape); err == nil {
			return m
		}
		mgSetupFallbacks.Inc()
	case !symmetric:
		f, err := NewILU0(a)
		if err != nil {
			iluSetupFallbacks.Inc()
			break
		}
		if !gridded {
			return f
		}
		if m, err := NewSemiGMG(a, *shape, f); err == nil {
			return m
		}
		mgSetupFallbacks.Inc()
		return f
	}
	return NewJacobi(a)
}
