package thermal

import (
	"context"
	"testing"

	"bright/internal/floorplan"
	"bright/internal/num"
	"bright/internal/units"
)

func benchProblem() *Problem {
	p := Power7Problem(676, units.CtoK(27), 0)
	p.NX, p.NY = 44, 32
	p.Power = floorplan.Power7().Rasterize(p.Grid(), floorplan.Power7FullLoad())
	return p
}

// BenchmarkSolveCold is the from-scratch path the co-simulation used to
// pay every fixed-point iteration: assemble the FV network, build the
// preconditioner, converge BiCGSTAB from the uniform inlet field.
func BenchmarkSolveCold(b *testing.B) {
	p := benchProblem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionWarm is the cached path: matrix, preconditioner and
// Krylov workspace reused, each solve warm-started from the previous
// field with a slightly different coolant heat — exactly the shape of
// the co-simulation loop. Compare against BenchmarkSolveCold.
func BenchmarkSessionWarm(b *testing.B) {
	ses, err := NewSession(benchProblem())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ses.Solve(nil, 0); err != nil {
		b.Fatal(err)
	}
	heats := [...]float64{3.9, 4.0, 4.1, 4.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ses.Solve(nil, heats[i%len(heats)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalResponse is the cold evaluate's dominant stage: the
// preconditioner build plus the two unit-response solves from zero, on
// the full-size 676 ml/min operator, in three variants: /jacobi, /ilu0
// and /mg (the semicoarsened multigrid over the ILU(0) factor, the
// solver rule's choice for this gridded nonsymmetric operator; /mg's
// build includes the fine factorization). `make bench-compare` gates
// the /jacobi vs /ilu0 and /ilu0 vs /mg wall-clock pairs at ≥ 1.0x.
func BenchmarkThermalResponse(b *testing.B) {
	ses, err := NewSession(Power7Problem(676, units.CtoK(27), 0))
	if err != nil {
		b.Fatal(err)
	}
	a := ses.solver.Matrix()
	s := ses.s
	shape := num.GridShape{NX: s.nx, NY: s.ny, NZ: s.nz + len(s.cavKs)}
	for _, pc := range []struct {
		name  string
		build func() (num.Preconditioner, error)
	}{
		{"jacobi", func() (num.Preconditioner, error) { return num.NewJacobi(a), nil }},
		{"ilu0", func() (num.Preconditioner, error) { return num.NewILU0(a) }},
		{"mg", func() (num.Preconditioner, error) { return num.NewSemiGMG(a, shape, nil) }},
	} {
		b.Run(pc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := pc.build()
				if err != nil {
					b.Fatal(err)
				}
				ses.solver = num.NewSparseSolverSymmetric(a, false, num.IterOptions{Tol: 1e-10, M: m})
				if _, err := ses.Response(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ses.LastIterations()), "iters")
		})
	}
}

// BenchmarkNewSession is a cold evaluate's thermal set-up on the
// full-size 676 ml/min operator: assemble the stamps, convert them to
// CSR, attach the SELL-C-σ mirror and factor ILU(0).
func BenchmarkNewSession(b *testing.B) {
	p := Power7Problem(676, units.CtoK(27), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSession(p); err != nil {
			b.Fatal(err)
		}
	}
}
