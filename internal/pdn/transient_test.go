package pdn

import (
	"math"
	"testing"

	"bright/internal/num"
)

func transientProblem(t *testing.T, decap, lag float64) *TransientProblem {
	t.Helper()
	base, _, err := Power7Problem()
	if err != nil {
		t.Fatal(err)
	}
	base.NX, base.NY = 53, 42 // coarser grid for transient speed
	base.LoadDensity = CacheLoad(base.Floorplan, base.grid(), base.Supply)
	return &TransientProblem{
		Base:            base,
		DecapPerArea:    decap,
		StepFraction:    0.1,
		VRMResponseTime: lag,
		Dt:              1e-7,
		Steps:           60,
	}
}

func TestTransientDroopShrinksWithDecap(t *testing.T) {
	prev := -1.0
	for _, decap := range []float64{5e-2, 2e-2, 5e-3} {
		res, err := SolveTransient(transientProblem(t, decap, 1e-6))
		if err != nil {
			t.Fatal(err)
		}
		if res.DroopMV <= prev {
			t.Fatalf("droop must grow as decap shrinks: %.1f mV at %.0e", res.DroopMV, decap)
		}
		prev = res.DroopMV
		if res.WorstV <= 0 {
			t.Fatalf("grid collapsed: %.3f V", res.WorstV)
		}
	}
}

func TestTransientRecoversToSettled(t *testing.T) {
	res, err := SolveTransient(transientProblem(t, 2e-2, 1e-6))
	if err != nil {
		t.Fatal(err)
	}
	last := res.MinV[len(res.MinV)-1]
	if math.Abs(last-res.SettledV) > 0.01 {
		t.Fatalf("did not recover: %.4f vs settled %.4f", last, res.SettledV)
	}
	// The worst droop happens during the lag window, not after.
	worstIdx := 0
	for k, v := range res.MinV {
		if v == res.WorstV {
			worstIdx = k
		}
	}
	if res.Times[worstIdx] > 1.5e-6 {
		t.Fatalf("worst droop at %.2e s, after the VRM lag", res.Times[worstIdx])
	}
}

func TestTransientLongerLagDeeperDroop(t *testing.T) {
	short, err := SolveTransient(transientProblem(t, 2e-2, 5e-7))
	if err != nil {
		t.Fatal(err)
	}
	long, err := SolveTransient(transientProblem(t, 2e-2, 2e-6))
	if err != nil {
		t.Fatal(err)
	}
	if long.DroopMV <= short.DroopMV {
		t.Fatalf("longer lag must droop deeper: %.1f vs %.1f mV", long.DroopMV, short.DroopMV)
	}
}

func TestTransientValidation(t *testing.T) {
	p := transientProblem(t, 2e-2, 1e-6)
	p.DecapPerArea = 0
	if _, err := SolveTransient(p); err == nil {
		t.Fatal("zero decap accepted")
	}
	p = transientProblem(t, 2e-2, 1e-6)
	p.StepFraction = 1
	if _, err := SolveTransient(p); err == nil {
		t.Fatal("unit step fraction accepted")
	}
	p = transientProblem(t, 2e-2, 1e-6)
	p.Steps = 5 // run shorter than the lag
	if _, err := SolveTransient(p); err == nil {
		t.Fatal("run shorter than the VRM lag accepted")
	}
	p = transientProblem(t, 2e-2, 1e-6)
	p.Base = nil
	if _, err := SolveTransient(p); err == nil {
		t.Fatal("nil base accepted")
	}
}

// TestTransientSessionMatchesJacobiCG: regulated and frozen steps of a
// TransientSession at the default grid, where every solver holds
// multigrid, agree with the same steps solved by Jacobi-preconditioned
// CG to a tighter tolerance.
func TestTransientSessionMatchesJacobiCG(t *testing.T) {
	p, _, err := Power7Problem()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTransientSession(p, 2e-2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewTransientSession(p, 2e-2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	jacobiCG := func(s *num.SparseSolver) *num.SparseSolver {
		if _, ok := s.Precond().(*num.Multigrid); !ok {
			t.Fatalf("session solver holds %T, want *num.Multigrid", s.Precond())
		}
		a := s.Matrix()
		return num.NewSparseSolverSymmetric(a, true, num.IterOptions{Tol: 1e-13, M: num.NewJacobi(a)})
	}
	ref.solver, ref.lagSolver = jacobiCG(ts.solver), jacobiCG(ts.lagSolver)
	for k, step := range []struct {
		scale  float64
		frozen bool
	}{{1, false}, {1, false}, {0.3, true}, {0.3, false}, {1.5, true}, {1.5, false}, {1.5, false}} {
		if _, _, err := ts.step(step.scale, step.frozen); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ref.step(step.scale, step.frozen); err != nil {
			t.Fatal(err)
		}
		worst, scale := 0.0, 0.0
		for i, want := range ref.x {
			worst = math.Max(worst, math.Abs(ts.x[i]-want))
			scale = math.Max(scale, math.Abs(want))
		}
		if worst > 1e-8*scale {
			t.Fatalf("step %d (load %g, frozen %v): state differs from the Jacobi-CG reference by %.2e V, want ≤ %.2e",
				k+1, step.scale, step.frozen, worst, 1e-8*scale)
		}
	}
}
