package potential

import (
	"testing"

	"bright/internal/obs"
)

// TestSolverPath pins which preconditioner the electrode potential
// solve resolves to. Solve builds its solver locally, so the
// process-wide setup counter is the observable: the default 48x48
// cross-section (2304 unknowns) stays below the multigrid threshold and
// runs Jacobi, while a 96x96 one (9216 unknowns, symmetric, shaped)
// gets geometric multigrid.
func TestSolverPath(t *testing.T) {
	gmg := obs.Default.Counter("bright_mg_setups_total", "", obs.L("kind", "gmg"))
	for _, tc := range []struct {
		name   string
		nx, ny int
		wantMG bool
	}{
		{"default-48x48", 0, 0, false},
		{"96x96", 96, 96, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tableIIProblem()
			p.CoverageLeft, p.CoverageRight = 0.5, 0.5
			p.NX, p.NY = tc.nx, tc.ny
			g0 := gmg.Value()
			if _, err := Solve(p); err != nil {
				t.Fatal(err)
			}
			if got := gmg.Value() > g0; got != tc.wantMG {
				t.Errorf("multigrid built = %v, want %v", got, tc.wantMG)
			}
		})
	}
}
