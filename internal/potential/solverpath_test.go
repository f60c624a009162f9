package potential

import (
	"testing"

	"bright/internal/obs"
)

// TestSolverPath pins which preconditioner and layout the electrode
// potential solve resolves to. Solve builds its solver locally, so the
// process-wide setup counters are the observable: the default 48x48
// cross-section (2304 unknowns) stays below both thresholds and runs
// Jacobi on CSR, while a 96x96 one (9216 unknowns, symmetric, shaped)
// gets geometric multigrid over a SELL-C-σ operator.
func TestSolverPath(t *testing.T) {
	gmg := obs.Default.Counter("bright_mg_setups_total", "", obs.L("kind", "gmg"))
	sell := obs.Default.Counter("bright_sparse_conversions_total", "", obs.L("format", "sell"))
	for _, tc := range []struct {
		name             string
		nx, ny           int
		wantMG, wantSELL bool
	}{
		{"default-48x48", 0, 0, false, false},
		{"96x96", 96, 96, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tableIIProblem()
			p.CoverageLeft, p.CoverageRight = 0.5, 0.5
			p.NX, p.NY = tc.nx, tc.ny
			g0, s0 := gmg.Value(), sell.Value()
			if _, err := Solve(p); err != nil {
				t.Fatal(err)
			}
			if got := gmg.Value() > g0; got != tc.wantMG {
				t.Errorf("multigrid built = %v, want %v", got, tc.wantMG)
			}
			if got := sell.Value() > s0; got != tc.wantSELL {
				t.Errorf("SELL attached = %v, want %v", got, tc.wantSELL)
			}
		})
	}
}
