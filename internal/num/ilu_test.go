package num

import (
	"errors"
	"math"
	"testing"
)

// tridiagNonsym builds an n×n nonsymmetric, diagonally dominant
// tridiagonal matrix with row-varying coefficients.
func tridiagNonsym(n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4+0.1*float64(i%7))
		if i > 0 {
			c.Add(i, i-1, -1.3-0.05*float64(i%3))
		}
		if i < n-1 {
			c.Add(i, i+1, -0.7)
		}
	}
	return c.ToCSR()
}

// TestILU0ExactOnTridiagonal: a tridiagonal matrix factors with no
// fill, so ILU(0) is its exact LU and Apply solves A z = r to
// round-off, also when r and z alias. The factor shares the matrix's
// index arrays.
func TestILU0ExactOnTridiagonal(t *testing.T) {
	const n = 200
	a := tridiagNonsym(n)
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if &f.rowPtr[0] != &a.RowPtr[0] || &f.colIdx[0] != &a.ColIdx[0] {
		t.Error("factor copied the matrix's index arrays instead of sharing them")
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = math.Sin(0.37*float64(i)) + 0.5
	}
	z := make([]float64, n)
	f.Apply(r, z)
	az := make([]float64, n)
	a.MulVec(z, az)
	for i := range r {
		if d := math.Abs(az[i] - r[i]); d > 1e-13 {
			t.Fatalf("row %d: (A z)_i = %.17g, r_i = %.17g (|d| = %.3g)", i, az[i], r[i], d)
		}
	}
	alias := append([]float64(nil), r...)
	f.Apply(alias, alias)
	for i := range z {
		if alias[i] != z[i] {
			t.Fatalf("aliased Apply differs at %d: %g vs %g", i, alias[i], z[i])
		}
	}
}

// TestILU0ZeroPivotFallsBackToJacobi: a nonsingular nonsymmetric matrix
// whose elimination meets a zero pivot fails to factor, and the solver
// rule degrades to Jacobi, counts the fallback and still solves.
func TestILU0ZeroPivotFallsBackToJacobi(t *testing.T) {
	c := NewCOO(3, 3)
	for _, e := range []struct {
		i, j int
		v    float64
	}{{0, 0, 1}, {0, 1, 2}, {1, 0, 1}, {1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {2, 2, 1}} {
		c.Add(e.i, e.j, e.v)
	}
	a := c.ToCSR() // u_11 = 2 - 1·2 = 0; det = -1
	if _, err := NewILU0(a); !errors.Is(err, ErrILUPivot) {
		t.Fatalf("NewILU0 error %v, want ErrILUPivot", err)
	}
	before := iluSetupFallbacks.Value()
	s := NewSparseSolverSymmetric(a, false, IterOptions{})
	if _, ok := s.Precond().(*JacobiPreconditioner); !ok {
		t.Fatalf("preconditioner %T after a failed factorization, want *JacobiPreconditioner", s.Precond())
	}
	if got := iluSetupFallbacks.Value() - before; got != 1 {
		t.Errorf("bright_ilu_setup_fallbacks_total moved by %d, want 1", got)
	}
	want := []float64{1, -1, 2}
	b := make([]float64, 3)
	a.MulVec(want, b)
	x := make([]float64, 3)
	if _, err := s.Solve(b, x); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

// TestILU0RejectsUnsortedRows: the elimination's merge walks need
// ascending columns, so a hand-built CSR that breaks the order is
// refused rather than factored wrongly.
func TestILU0RejectsUnsortedRows(t *testing.T) {
	a := &CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 2, 4}, ColIdx: []int{1, 0, 0, 1}, Val: []float64{1, 3, 1, 3}}
	if _, err := NewILU0(a); !errors.Is(err, ErrILUPattern) {
		t.Fatalf("NewILU0 error %v, want ErrILUPattern", err)
	}
}
