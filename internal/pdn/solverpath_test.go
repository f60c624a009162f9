package pdn

import (
	"math"
	"math/rand"
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

// TestSymmetricCycleSelfAdjoint: on the PDN operator the multigrid
// cycle the solver rule builds is a symmetric operator, ⟨M⁻¹u, v⟩ =
// ⟨u, M⁻¹v⟩, as CG requires. The cycle built for a nonsymmetric
// operator (no finest-level pre-smooth) fails the same check, so the
// check can see a broken cycle.
func TestSymmetricCycleSelfAdjoint(t *testing.T) {
	p, _, err := Power7Problem()
	if err != nil {
		t.Fatal(err)
	}
	ses, err := NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	a := ses.solver.Matrix()
	rng := rand.New(rand.NewSource(3))
	u, v := make([]float64, a.Rows), make([]float64, a.Rows)
	for i := range u {
		u[i], v[i] = rng.Float64(), rng.Float64()
	}
	// asymmetry returns |⟨M⁻¹u, v⟩ - ⟨u, M⁻¹v⟩| relative to the larger
	// of the two products.
	asymmetry := func(m num.Preconditioner) float64 {
		mu, mv := make([]float64, a.Rows), make([]float64, a.Rows)
		m.Apply(u, mu)
		m.Apply(v, mv)
		x, y := num.Dot(mu, v), num.Dot(u, mv)
		return math.Abs(x-y) / math.Max(math.Abs(x), math.Abs(y))
	}
	mg, ok := ses.solver.Precond().(*num.Multigrid)
	if !ok {
		t.Fatalf("preconditioner %T, want *num.Multigrid", ses.solver.Precond())
	}
	sym := asymmetry(mg)
	if sym > 1e-12 {
		t.Fatalf("symmetric cycle: ⟨M⁻¹u, v⟩ and ⟨u, M⁻¹v⟩ differ by %.2e relative, want ≤ 1e-12", sym)
	}
	nonsym, err := num.NewSemiGMG(a, num.GridShape{NX: ses.g.NX(), NY: ses.g.NY()}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	d := asymmetry(nonsym)
	if d < 1e-6 {
		t.Fatalf("nonsymmetric cycle differs by only %.2e relative; the check cannot tell the cycles apart", d)
	}
	t.Logf("relative asymmetry: symmetric cycle %.2e, nonsymmetric cycle %.2e", sym, d)
}
