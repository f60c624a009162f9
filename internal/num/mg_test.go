package num

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laplacian3D builds the SPD 7-point stencil on an nx x ny x nz grid,
// row-major with X fastest (mesh.Grid3D order).
func laplacian3D(nx, ny, nz int) *CSR {
	c := NewCOO(nx*ny*nz, nx*ny*nz)
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				row := idx(i, j, k)
				c.Add(row, row, 6)
				if i > 0 {
					c.Add(row, idx(i-1, j, k), -1)
				}
				if i < nx-1 {
					c.Add(row, idx(i+1, j, k), -1)
				}
				if j > 0 {
					c.Add(row, idx(i, j-1, k), -1)
				}
				if j < ny-1 {
					c.Add(row, idx(i, j+1, k), -1)
				}
				if k > 0 {
					c.Add(row, idx(i, j, k-1), -1)
				}
				if k < nz-1 {
					c.Add(row, idx(i, j, k+1), -1)
				}
			}
		}
	}
	return c.ToCSR()
}

// TestGMGBeatsJacobi: on the 128x128 Laplacian, CG preconditioned by
// the symmetric cycle converges in at most half the iterations of
// Jacobi-preconditioned CG.
func TestGMGBeatsJacobi(t *testing.T) {
	const n = 128
	a := laplacian2D(n)
	mg, err := NewSemiGMG(a, GridShape{NX: n, NY: n}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Levels() < 3 {
		t.Fatalf("levels=%d, want >=3", mg.Levels())
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	opt := IterOptions{Tol: 1e-8}
	x := make([]float64, a.Rows)
	opt.M = NewJacobi(a)
	jac, err := CG(a, b, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	Fill(x, 0)
	opt.M = mg
	mgr, err := CG(a, b, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rn := residualNorm(a, b, x); rn > 1e-7 {
		t.Fatalf("MG-CG residual %g", rn)
	}
	if 2*mgr.Iterations > jac.Iterations {
		t.Fatalf("MG-CG took %d iterations vs Jacobi-CG %d, want >=2x fewer", mgr.Iterations, jac.Iterations)
	}
	t.Logf("128x128: jacobi=%d iters, gmg=%d iters (%.1fx)", jac.Iterations, mgr.Iterations,
		float64(jac.Iterations)/float64(mgr.Iterations))
}

func TestGMG3D(t *testing.T) {
	a := laplacian3D(24, 20, 8)
	mg, err := NewSemiGMG(a, GridShape{NX: 24, NY: 20, NZ: 8}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%9) - 4
	}
	x := make([]float64, a.Rows)
	res, err := CG(a, b, x, IterOptions{Tol: 1e-9, M: mg})
	if err != nil {
		t.Fatal(err)
	}
	if rn := residualNorm(a, b, x); rn > 1e-8 {
		t.Fatalf("residual %g after %d iters", rn, res.Iterations)
	}
	Fill(x, 0)
	jac, err := CG(a, b, x, IterOptions{Tol: 1e-9, M: NewJacobi(a)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= jac.Iterations {
		t.Fatalf("3D MG-CG took %d iterations vs Jacobi %d, want fewer", res.Iterations, jac.Iterations)
	}
}

// TestGMGShapeMismatch: a shape that does not cover the matrix must be
// rejected at setup, not fail mysteriously later.
func TestGMGShapeMismatch(t *testing.T) {
	a := laplacian2D(16)
	if _, err := NewSemiGMG(a, GridShape{NX: 16, NY: 17}, nil, true); err == nil {
		t.Fatal("mismatched shape accepted")
	}
}

// TestMGApplyZeroAlloc is the per-cycle allocation contract: hierarchy
// setup may allocate, Apply must not, in either form of the cycle.
func TestMGApplyZeroAlloc(t *testing.T) {
	sym := laplacian2D(32)
	nonsym := thermalStampPattern(40, 32, 4).ToCSR()
	for _, tc := range []struct {
		name  string
		a     *CSR
		shape GridShape
	}{
		{"symmetric", sym, GridShape{NX: 32, NY: 32}},
		{"semicoarsened", nonsym, GridShape{NX: 40, NY: 32, NZ: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mg, err := NewSemiGMG(tc.a, tc.shape, nil, tc.a == sym)
			if err != nil {
				t.Fatal(err)
			}
			r := make([]float64, tc.a.Rows)
			z := make([]float64, tc.a.Rows)
			for i := range r {
				r[i] = float64(i%13) - 6
			}
			mg.Apply(r, z) // warm any lazy paths before counting
			if allocs := testing.AllocsPerRun(20, func() { mg.Apply(r, z) }); allocs != 0 {
				t.Fatalf("Apply allocates %.1f per cycle, want 0", allocs)
			}
		})
	}
}

// TestAggregateGalerkin: the coarse operator summed from the fine rows
// is P^T A P for the piecewise-constant prolongation, on a grid whose
// odd sides leave one-cell-wide aggregates at the far edges, with
// strictly ascending columns per row (the ILU(0) pattern contract).
func TestAggregateGalerkin(t *testing.T) {
	fine := GridShape{NX: 9, NY: 7, NZ: 4}
	a := thermalStampPattern(9, 7, 3).ToCSR()
	coarse := fine.coarsenXY()
	agg := aggregates(fine, coarse)
	want, nnz := galerkinDense(a, agg, coarse.Cells())
	got := aggregateGalerkin(a, agg, fine, coarse)
	if got.Rows != coarse.Cells() || len(got.Val) != nnz {
		t.Fatalf("coarse operator %d rows, %d entries; want %d rows, %d entries", got.Rows, len(got.Val), coarse.Cells(), nnz)
	}
	if cap(got.ColIdx) != len(got.Val) || cap(got.Val) != len(got.Val) {
		t.Fatalf("coarse operator not sized exactly: cap %d/%d for %d entries", cap(got.ColIdx), cap(got.Val), len(got.Val))
	}
	for i := 0; i < got.Rows; i++ {
		for k := got.RowPtr[i]; k < got.RowPtr[i+1]; k++ {
			if k > got.RowPtr[i] && got.ColIdx[k] <= got.ColIdx[k-1] {
				t.Fatalf("row %d columns not strictly ascending", i)
			}
			j := got.ColIdx[k]
			if w := want.At(i, j); math.Abs(got.Val[k]-w) > 1e-12*math.Max(1, math.Abs(w)) {
				t.Fatalf("A_c(%d,%d) = %g, want %g", i, j, got.Val[k], w)
			}
		}
	}
}

// galerkinDense returns P^T A P densely for the piecewise-constant
// prolongation P that maps coarse cell agg[i] to fine cell i, and the
// number of coarse entries that some stored entry of a reaches.
func galerkinDense(a *CSR, agg []int32, nc int) (*Dense, int) {
	c := NewDense(nc, nc)
	stored := make(map[[2]int32]bool)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			I, J := agg[i], agg[a.ColIdx[k]]
			c.Set(int(I), int(J), c.At(int(I), int(J))+a.Val[k])
			stored[[2]int32{I, J}] = true
		}
	}
	return c, len(stored)
}

// TestSemiGMGBeatsILU0: on a thermal-like nonsymmetric operator (thin
// solid planes over an advected fluid plane) the semicoarsened
// hierarchy keeps every plane, and BiCGSTAB preconditioned by it needs
// fewer than half the iterations of plain ILU(0).
func TestSemiGMGBeatsILU0(t *testing.T) {
	shape := GridShape{NX: 64, NY: 48, NZ: 5}
	a := thermalStampPattern(64, 48, 4).ToCSR()
	mg, err := NewSemiGMG(a, shape, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if last := mg.levels[len(mg.levels)-1]; last.a.Rows > mgSemiCoarsestN || last.a.Rows%shape.NZ != 0 {
		t.Fatalf("coarsest level has %d rows, want at most %d in %d planes", last.a.Rows, mgSemiCoarsestN, shape.NZ)
	}
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%11) - 3
	}
	iters := map[string]int{}
	for _, pc := range []struct {
		name string
		m    Preconditioner
	}{{"ilu0", f}, {"mg", mg}} {
		x := make([]float64, a.Rows)
		res, err := BiCGSTABWith(a, b, x, IterOptions{Tol: 1e-10, M: pc.m}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rn := residualNorm(a, b, x) / Norm2(b); rn > 1e-9 {
			t.Fatalf("%s: relative residual %g", pc.name, rn)
		}
		iters[pc.name] = res.Iterations
	}
	t.Logf("iterations: %v over %d levels", iters, mg.Levels())
	if 2*iters["mg"] > iters["ilu0"] {
		t.Fatalf("semicoarsened MG took %d iterations vs ILU(0) %d, want at most half", iters["mg"], iters["ilu0"])
	}
}

// TestPrecondPolicy pins the preconditioner rule as a table over what
// the operator shows: multigrid for an operator of at least
// MGAutoThreshold rows whose grid the shape covers (with the symmetric
// cycle when the operator is symmetric), otherwise ILU(0) for a
// nonsymmetric operator and Jacobi for a symmetric one.
func TestPrecondPolicy(t *testing.T) {
	small := laplacian2D(16) // 256 unknowns < MGAutoThreshold
	large := laplacian2D(64) // 4096 unknowns >= MGAutoThreshold
	smallShape := &GridShape{NX: 16, NY: 16}
	largeShape := &GridShape{NX: 64, NY: 64}
	wrongShape := &GridShape{NX: 64, NY: 32}
	for _, tc := range []struct {
		name      string
		a         *CSR
		symmetric bool
		shape     *GridShape
		want      string
	}{
		{"large/sym/shape", large, true, largeShape, "mg"},
		{"large/sym/no-shape", large, true, nil, "jacobi"},
		{"large/sym/mismatched-shape", large, true, wrongShape, "jacobi"},
		{"large/nonsym/shape", large, false, largeShape, "mg"},
		{"large/nonsym/no-shape", large, false, nil, "ilu0"},
		{"large/nonsym/mismatched-shape", large, false, wrongShape, "ilu0"},
		{"small/sym/shape", small, true, smallShape, "jacobi"},
		{"small/sym/no-shape", small, true, nil, "jacobi"},
		{"small/nonsym/no-shape", small, false, nil, "ilu0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pre := NewSparseSolverSymmetric(tc.a, tc.symmetric, IterOptions{Shape: tc.shape}).Precond()
			got := fmt.Sprintf("%T", pre)
			switch m := pre.(type) {
			case *Multigrid:
				got = "mg"
				if m.symmetric != tc.symmetric {
					t.Fatalf("symmetric=%v operator got the symmetric=%v cycle", tc.symmetric, m.symmetric)
				}
			case *ILU0:
				got = "ilu0"
			case *JacobiPreconditioner:
				got = "jacobi"
			}
			if got != tc.want {
				t.Fatalf("resolved to %s, want %s", got, tc.want)
			}
		})
	}
	// An explicit preconditioner bypasses the rule.
	id := IdentityPreconditioner{}
	if s := NewSparseSolverSymmetric(large, true, IterOptions{M: id, Shape: largeShape}); s.Precond() != id {
		t.Fatalf("explicit M replaced by %T", s.Precond())
	}
}

// TestSemiGMGFallback: when the semicoarsened hierarchy cannot be
// built, the rule keeps the plain ILU(0) it already factored and counts
// the fallback. The operator is unit upper triangular (its ILU(0) is
// exact), but each -2 coupling inside a 2×2 aggregate cancels the
// aggregate's diagonal, so the first coarse level has a zero pivot.
func TestSemiGMGFallback(t *testing.T) {
	const n = 64
	c := NewCOO(n*n, n*n)
	for row := 0; row < n*n; row++ {
		c.Add(row, row, 1)
		if row%2 == 0 {
			c.Add(row, row+1, -2)
		}
	}
	a := c.ToCSR()
	if _, err := NewSemiGMG(a, GridShape{NX: n, NY: n}, nil, false); err == nil {
		t.Fatal("hierarchy over a zero coarse pivot built")
	}
	f0 := mgSetupFallbacks.Value()
	pre := NewSparseSolverSymmetric(a, false, IterOptions{Shape: &GridShape{NX: n, NY: n}}).Precond()
	if _, ok := pre.(*ILU0); !ok {
		t.Fatalf("fallback resolved to %T, want *ILU0", pre)
	}
	if d := mgSetupFallbacks.Value() - f0; d != 1 {
		t.Fatalf("fallback counter moved by %d, want 1", d)
	}
}

// TestMaxIterOutcome pins the budget-exhaustion contract: the error is
// ErrMaxIter (still matching ErrNoConvergence), the solver does NOT
// fall back from CG to BiCGSTAB on it, and the dedicated obs counter
// moves while the fallback counter does not.
func TestMaxIterOutcome(t *testing.T) {
	a := laplacian2D(32)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	_, err := CG(a, b, x, IterOptions{Tol: 1e-14, MaxIter: 2, M: NewJacobi(a)})
	if !errors.Is(err, ErrMaxIter) || !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("budget exhaustion returned %v, want ErrMaxIter wrapping ErrNoConvergence", err)
	}

	m0, f0, fail0 := maxIterExhausted.Value(), cgFallbacks.Value(), solveFailures.Value()
	Fill(x, 0)
	s := NewSparseSolverSymmetric(a, true, IterOptions{Tol: 1e-14, MaxIter: 2, M: NewJacobi(a)})
	if _, err := s.Solve(b, x); !errors.Is(err, ErrMaxIter) {
		t.Fatalf("SparseSolver returned %v, want ErrMaxIter", err)
	}
	if d := maxIterExhausted.Value() - m0; d != 1 {
		t.Fatalf("maxiter counter moved by %d, want 1", d)
	}
	if d := cgFallbacks.Value() - f0; d != 0 {
		t.Fatalf("fallback counter moved by %d on budget exhaustion, want 0", d)
	}
	if d := solveFailures.Value() - fail0; d != 1 {
		t.Fatalf("failure counter moved by %d, want 1", d)
	}
}

// TestMaxIterDefaultCap: the derived 10*n default must clamp on large
// systems instead of masking non-convergence behind huge budgets.
func TestMaxIterDefaultCap(t *testing.T) {
	o := IterOptions{}.withDefaults(1 << 20)
	if o.MaxIter != defaultMaxIterCap {
		t.Fatalf("default MaxIter for n=1<<20 is %d, want cap %d", o.MaxIter, defaultMaxIterCap)
	}
	o = IterOptions{}.withDefaults(10)
	if o.MaxIter != 200 {
		t.Fatalf("default MaxIter for n=10 is %d, want floor 200", o.MaxIter)
	}
	o = IterOptions{MaxIter: 123456}.withDefaults(10)
	if o.MaxIter != 123456 {
		t.Fatalf("explicit MaxIter overridden to %d", o.MaxIter)
	}
}

// TestMGTelemetry: hierarchy setup and cycle counters move.
func TestMGTelemetry(t *testing.T) {
	s0, c0, l0 := mgSetupsGMG.Value(), mgCycles.Value(), mgLevelsBuilt.Value()
	a := laplacian2D(32)
	mg, err := NewSemiGMG(a, GridShape{NX: 32, NY: 32}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, a.Rows)
	z := make([]float64, a.Rows)
	r[0] = 1
	mg.Apply(r, z)
	mg.Apply(r, z)
	if d := mgSetupsGMG.Value() - s0; d != 1 {
		t.Fatalf("gmg setup counter moved by %d, want 1", d)
	}
	if d := mgCycles.Value() - c0; d != 2 {
		t.Fatalf("cycle counter moved by %d, want 2", d)
	}
	if d := mgLevelsBuilt.Value() - l0; int(d) != mg.Levels() {
		t.Fatalf("levels counter moved by %d, want %d", d, mg.Levels())
	}
}
