package thermal

import (
	"testing"

	"bright/internal/floorplan"
	"bright/internal/num"
)

// TestSolverPath pins which preconditioner and layout the thermal
// operators resolve to. Advection makes every thermal network
// nonsymmetric, so the rule gives it ILU(0), never multigrid: the
// steady co-simulation session and the 44x32 transient session of the
// streaming twin both run ILU(0) + BiCGSTAB, on a SELL-C-σ operator
// since both exceed 4096 unknowns. Outside -short it also pins what
// ILU(0) buys: the 676 ml/min power unit response converges in under
// 60 iterations (Jacobi took about 300).
func TestSolverPath(t *testing.T) {
	assertILUSell := func(t *testing.T, s *num.SparseSolver) {
		t.Helper()
		if s.Symmetric() {
			t.Error("thermal operator asserted symmetric")
		}
		if _, ok := s.Precond().(*num.ILU0); !ok {
			t.Errorf("preconditioner %T, want *num.ILU0", s.Precond())
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
		assertILUSell(t, ses.solver)
		if testing.Short() {
			return
		}
		// The power unit response, solved from zero as Response solves it.
		s := ses.s
		b := make([]float64, s.n)
		s.addPower(b, ses.p.Power)
		x := make([]float64, s.n)
		res, err := ses.solver.Solve(b, x)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("676 ml/min power unit solve: %d iterations", res.Iterations)
		if res.Iterations >= 60 {
			t.Errorf("676 ml/min power unit solve took %d iterations, want < 60", res.Iterations)
		}
	})

	t.Run("transient-session", func(t *testing.T) {
		p := Power7Problem(676, 300, 0)
		p.NX, p.NY = 44, 32
		p.Power = floorplan.Power7().Rasterize(p.Grid(), floorplan.Power7FullLoad())
		ts, err := NewTransientSession(p, 300, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		assertILUSell(t, ts.solver)
	})
}
