package num

import "bright/internal/obs"

// MGAutoThreshold is the unknown count at and above which a symmetric
// system with a covering grid shape gets multigrid instead of Jacobi.
// Below it, Jacobi solves finish before MG setup would pay for itself.
const MGAutoThreshold = 4096

var (
	mgSetupFallbacks = obs.Default.Counter("bright_mg_setup_fallbacks_total",
		"Multigrid setups that failed and fell back to Jacobi.")
	iluSetupFallbacks = obs.Default.Counter("bright_ilu_setup_fallbacks_total",
		"ILU(0) factorizations that failed and fell back to Jacobi.")
)

// buildPrecond picks the preconditioner from what the operator shows:
// geometric multigrid when a is symmetric, has at least MGAutoThreshold
// rows and shape describes its grid; ILU(0) when a is nonsymmetric;
// Jacobi otherwise. A multigrid setup or ILU(0) factorization failure
// degrades to Jacobi rather than failing the solver build: the result
// is always usable, just possibly slower.
func buildPrecond(a *CSR, symmetric bool, shape *GridShape) Preconditioner {
	switch {
	case symmetric && a.Rows >= MGAutoThreshold && shape != nil && shape.covers(a):
		if m, err := NewGMG(a, *shape); err == nil {
			return m
		}
		mgSetupFallbacks.Inc()
	case !symmetric:
		if f, err := NewILU0(a); err == nil {
			return f
		}
		iluSetupFallbacks.Inc()
	}
	return NewJacobi(a)
}

// Layout-rule thresholds. Variables so tests can exercise both sides
// without building huge operators.
var (
	// sellMinRows is the row count at and above which an operator is
	// converted to SELL-C-σ: below it the operator fits cache and the
	// CSR gather is already fast, while the conversion would still cost
	// a pass over the matrix at every solver setup.
	sellMinRows = 4096
	// sellMaxPadding is the PaddingRatio above which a SELL conversion
	// is discarded and the operator stays CSR: past it the padded
	// column-major stream reads more memory than the CSR gather saves.
	sellMaxPadding = 1.25
)

var (
	sellConversions = obs.Default.Counter("bright_sparse_conversions_total",
		"Operators converted to the SELL-C-σ layout at solver setup.",
		obs.L("format", "sell"))
	sellFallbacks = obs.Default.Counter("bright_sparse_sell_fallbacks_total",
		"SELL-C-σ conversions discarded for excess padding (operator stayed CSR).")
)

// ensureFormat applies the layout rule: operators with at least
// sellMinRows rows get the SELL-C-σ mirror (see attachSELL), smaller
// ones stay CSR. Conversion happens here — at solver/hierarchy setup —
// never on the multiply path, so the zero-alloc steady-state contract
// holds.
func (m *CSR) ensureFormat() {
	if m.Rows >= sellMinRows {
		m.attachSELL()
	}
}

// attachSELL converts m to SELL-C-σ and attaches the mirror, unless the
// padding overhead exceeds sellMaxPadding, in which case m stays CSR.
// It is idempotent and safe to call concurrently with MulVec.
func (m *CSR) attachSELL() {
	if m.sell.Load() != nil {
		return
	}
	s := NewSELLCS(m)
	if s == nil || s.PaddingRatio() > sellMaxPadding {
		sellFallbacks.Inc()
		return
	}
	sellConversions.Inc()
	m.sell.Store(s)
}
