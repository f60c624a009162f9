package thermal

import (
	"math"
	"testing"

	"bright/internal/floorplan"
	"bright/internal/units"
)

// sessionTestProblem is the case-study problem at a coarse grid: fast
// enough to solve repeatedly, fine enough to exercise every term.
func sessionTestProblem(extraFluidHeat float64) *Problem {
	p := Power7Problem(676, units.CtoK(27), extraFluidHeat)
	p.NX, p.NY = 22, 16
	p.Power = floorplan.Power7().Rasterize(p.Grid(), floorplan.Power7FullLoad())
	return p
}

// TestSessionMatchesFreshSolve pins the session's core contract: a
// warm-started, cached-matrix solve lands on the same steady state as a
// from-scratch Solve, for several extra-heat values in either order.
func TestSessionMatchesFreshSolve(t *testing.T) {
	ses, err := NewSession(sessionTestProblem(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, heat := range []float64{0, 4.0, 1.5, 8.0, 0} {
		got, err := ses.Solve(nil, heat)
		if err != nil {
			t.Fatalf("session solve (heat=%g): %v", heat, err)
		}
		want, err := Solve(sessionTestProblem(heat))
		if err != nil {
			t.Fatalf("fresh solve (heat=%g): %v", heat, err)
		}
		for _, q := range []struct {
			name     string
			got, ref float64
		}{
			{"PeakT", got.PeakT, want.PeakT},
			{"MeanFluidT", got.MeanFluidT, want.MeanFluidT},
			{"MeanWallT", got.MeanWallT, want.MeanWallT},
		} {
			if rel := math.Abs(q.got-q.ref) / q.ref; rel > 1e-6 {
				t.Errorf("heat=%g: %s relative error %g (session %g vs fresh %g)",
					heat, q.name, rel, q.got, q.ref)
			}
		}
	}
}

// TestSessionWarmStartCutsIterations is the observable payoff: after the
// first solve, a nearby right-hand side converges in fewer Krylov
// iterations from the cached field than the cold solve needed.
func TestSessionWarmStartCutsIterations(t *testing.T) {
	ses, err := NewSession(sessionTestProblem(0))
	if err != nil {
		t.Fatal(err)
	}
	if ses.Warm() {
		t.Fatal("new session must start cold")
	}
	if _, err := ses.Solve(nil, 0); err != nil {
		t.Fatal(err)
	}
	cold := ses.LastIterations()
	if !ses.Warm() {
		t.Fatal("session must be warm after a converged solve")
	}
	if _, err := ses.Solve(nil, 0.1); err != nil {
		t.Fatal(err)
	}
	warm := ses.LastIterations()
	if warm >= cold {
		t.Fatalf("warm re-solve took %d iterations, cold took %d", warm, cold)
	}
}

// TestSessionRejectsNegativeHeat mirrors Solve's validation.
func TestSessionRejectsNegativeHeat(t *testing.T) {
	ses, err := NewSession(sessionTestProblem(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Solve(nil, -1); err == nil {
		t.Fatal("negative extra heat accepted")
	}
}
