package thermal

import (
	"testing"

	"bright/internal/floorplan"
	"bright/internal/num"
)

// TestSolverPath pins which preconditioner and layout the thermal
// operators resolve to. Advection makes every thermal network
// nonsymmetric, so multigrid never applies: the steady co-simulation
// session and the 44x32 transient session of the streaming twin both
// run Jacobi, on a SELL-C-σ operator since both exceed 4096 unknowns.
func TestSolverPath(t *testing.T) {
	assertJacobiSell := func(t *testing.T, s *num.SparseSolver) {
		t.Helper()
		if s.Symmetric() {
			t.Error("thermal operator asserted symmetric")
		}
		if _, ok := s.Precond().(*num.JacobiPreconditioner); !ok {
			t.Errorf("preconditioner %T, want *num.JacobiPreconditioner", s.Precond())
		}
		if got := s.Matrix().Layout(); got != "sell" {
			t.Errorf("layout %q over %d rows, want sell", got, s.Matrix().Rows)
		}
	}

	t.Run("session", func(t *testing.T) {
		ses, err := NewSession(Power7Problem(676, 300, 0))
		if err != nil {
			t.Fatal(err)
		}
		assertJacobiSell(t, ses.solver)
	})

	t.Run("transient-session", func(t *testing.T) {
		p := Power7Problem(676, 300, 0)
		p.NX, p.NY = 44, 32
		p.Power = floorplan.Power7().Rasterize(p.Grid(), floorplan.Power7FullLoad())
		ts, err := NewTransientSession(p, 300, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		assertJacobiSell(t, ts.solver)
	})
}
