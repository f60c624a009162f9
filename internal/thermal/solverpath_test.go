package thermal

import (
	"context"
	"math"
	"testing"

	"bright/internal/floorplan"
	"bright/internal/num"
	"bright/internal/units"
)

// TestSolverPath pins which preconditioner the thermal operators
// resolve to. Advection makes every thermal network
// nonsymmetric. The steady co-simulation session passes its grid shape,
// so the rule gives it the semicoarsened multigrid with ILU(0)
// smoothing; the 44x32 transient session of the streaming twin passes
// none and runs plain ILU(0), whose c/dt diagonal already makes each
// step cheap (the hierarchy made twin-stream steps slower). Both run
// BiCGSTAB. Outside -short it also pins what the hierarchy buys: the 676 ml/min
// power unit response converges in under 15 iterations (ILU(0) alone
// took 48, Jacobi about 300).
func TestSolverPath(t *testing.T) {
	assertNonsym := func(t *testing.T, s *num.SparseSolver) {
		t.Helper()
		if s.Symmetric() {
			t.Error("thermal operator asserted symmetric")
		}
	}

	t.Run("session", func(t *testing.T) {
		ses, err := NewSession(Power7Problem(676, 300, 0))
		if err != nil {
			t.Fatal(err)
		}
		assertNonsym(t, ses.solver)
		mg, ok := ses.solver.Precond().(*num.Multigrid)
		if !ok {
			t.Fatalf("preconditioner %T, want *num.Multigrid", ses.solver.Precond())
		}
		// 88x64 halves to 6x4 over four coarsenings: 120 rows in the
		// five planes, the first level at or under 200 unknowns.
		if mg.Levels() != 5 {
			t.Errorf("hierarchy has %d levels, want 5", mg.Levels())
		}
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
		if res.Iterations >= 15 {
			t.Errorf("676 ml/min power unit solve took %d iterations, want < 15", res.Iterations)
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
		assertNonsym(t, ts.solver)
		if _, ok := ts.solver.Precond().(*num.ILU0); !ok {
			t.Errorf("preconditioner %T, want *num.ILU0", ts.solver.Precond())
		}
	})
}

// counterflowProblem is the Power7 stack at 676 ml/min with
// alternating channel directions.
func counterflowProblem() *Problem {
	p := Power7Problem(676, units.CtoK(27), 0)
	p.Stack.Channels.CounterFlow = true
	return p
}

// cloggedProblem is the Power7 stack at 300 ml/min with channel column
// 40 carrying no flow, so its fluid hangs on the wall coupling alone.
func cloggedProblem() *Problem {
	p := Power7Problem(300, units.CtoK(27), 0)
	w := make([]float64, p.Grid().NX())
	for i := range w {
		w[i] = 1
	}
	w[40] = 0
	p.Stack.Channels.FlowWeights = w
	return p
}

// TestMultigridResponseMatchesILU0: the multigrid-preconditioned unit
// responses agree with an explicitly ILU(0)-preconditioned reference
// within 1e-8 relative (of each response's largest entry) on the
// operators that stress the hierarchy: the slowest flow, counterflow, a
// clogged column whose fluid hangs on a 1e-6 wall coupling, and the
// two-cavity 3D stack.
func TestMultigridResponseMatchesILU0(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size solves in -short mode")
	}
	f := floorplan.Power7()
	stack3D := func() *Problem {
		spec := Power7ChannelSpec(units.MLPerMinToM3PerS(676), units.CtoK(27), VanadiumCoolant())
		p := &Problem{DieWidth: f.Width, DieHeight: f.Height, Stack: Power7Stack3D(spec)}
		p.Power = f.Rasterize(p.Grid(), floorplan.Power7FullLoad())
		return p
	}
	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		{"48 ml/min", Power7Problem(48, units.CtoK(27), 0)},
		{"counterflow", counterflowProblem()},
		{"clogged column", cloggedProblem()},
		{"3D stack two cavities", stack3D()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ses, err := NewSession(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := ses.solver.Precond().(*num.Multigrid); !ok {
				t.Fatalf("preconditioner %T, want *num.Multigrid", ses.solver.Precond())
			}
			got, err := ses.Response(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			mgIters := ses.LastIterations()
			a := ses.solver.Matrix()
			ilu, err := num.NewILU0(a)
			if err != nil {
				t.Fatal(err)
			}
			ses.solver = num.NewSparseSolverSymmetric(a, false, num.IterOptions{Tol: 1e-10, M: ilu})
			want, err := ses.Response(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("heat unit solve: %d iterations with multigrid, %d with ILU(0)", mgIters, ses.LastIterations())
			for _, unit := range []struct {
				name      string
				got, want []float64
			}{{"power", got.xp, want.xp}, {"coolant heat", got.xh, want.xh}} {
				scale := num.NormInf(unit.want)
				for i, w := range unit.want {
					if d := math.Abs(unit.got[i] - w); d > 1e-8*scale {
						t.Fatalf("%s response node %d: multigrid %.12g vs ILU(0) %.12g (|d|/max %.2g)", unit.name, i, unit.got[i], w, d/scale)
					}
				}
			}
		})
	}
}
