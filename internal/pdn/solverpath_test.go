package pdn

import (
	"testing"

	"bright/internal/num"
	"bright/internal/obs"
)

// gmgSetups reads the process-wide geometric-multigrid setup counter.
func gmgSetups() uint64 {
	return obs.Default.Counter("bright_mg_setups_total", "", obs.L("kind", "gmg")).Value()
}

// TestSolverPath pins which preconditioner each PDN operator resolves
// to. Every PDN stamp is symmetric and carries its grid shape, so at
// the default 106x85 grid (9010 unknowns) every solver must hold
// geometric multigrid.
func TestSolverPath(t *testing.T) {
	p, _, err := Power7Problem()
	if err != nil {
		t.Fatal(err)
	}
	assertGMG := func(t *testing.T, name string, s *num.SparseSolver) {
		t.Helper()
		if _, ok := s.Precond().(*num.Multigrid); !ok {
			t.Errorf("%s: preconditioner %T, want *num.Multigrid", name, s.Precond())
		}
	}

	t.Run("session", func(t *testing.T) {
		ses, err := NewSession(p)
		if err != nil {
			t.Fatal(err)
		}
		assertGMG(t, "Session", ses.solver)
	})

	t.Run("transient-session", func(t *testing.T) {
		ts, err := NewTransientSession(p, 2e-2, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		assertGMG(t, "TransientSession regulated", ts.solver)
		assertGMG(t, "TransientSession lag", ts.lagSolver)
	})

	// SolveTransient builds its DC, lag and regulated solvers locally,
	// so the setup counter is the observable: three hierarchies at the
	// default grid, none at the 53x42 grid of the wake-up-droop study
	// (2226 unknowns, below num.MGAutoThreshold: Jacobi).
	for _, tc := range []struct {
		name   string
		nx, ny int
		want   uint64
	}{{"transient-default-grid", 0, 0, 3}, {"transient-53x42", 53, 42, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			base, _, err := Power7Problem()
			if err != nil {
				t.Fatal(err)
			}
			if tc.nx > 0 {
				base.NX, base.NY = tc.nx, tc.ny
			}
			base.LoadDensity = CacheLoad(base.Floorplan, base.grid(), base.Supply)
			s0 := gmgSetups()
			if _, err := SolveTransient(&TransientProblem{
				Base: base, DecapPerArea: 2e-2, StepFraction: 0.1,
				VRMResponseTime: 1e-7, Dt: 1e-7, Steps: 2,
			}); err != nil {
				t.Fatal(err)
			}
			if d := gmgSetups() - s0; d != tc.want {
				t.Fatalf("SolveTransient built %d multigrid hierarchies, want %d", d, tc.want)
			}
		})
	}
}
