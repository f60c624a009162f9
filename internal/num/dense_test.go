package num

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseAtSet(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	m.Add(1, 2, 1)
	if got := m.At(1, 2); got != 8 {
		t.Fatalf("At(1,2) = %g, want 8", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero init broken: %g", got)
	}
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone aliases data")
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 3)
	// [1 2 3; 4 5 6] * [1 1 1]' = [6 15]'
	for j := 0; j < 3; j++ {
		m.Set(0, j, float64(j+1))
		m.Set(1, j, float64(j+4))
	}
	y := make([]float64, 2)
	m.MulVec([]float64{1, 1, 1}, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v, want [6 15]", y)
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewDense(3, 3)
	vals := [][]float64{{2, 1, 1}, {1, 3, 2}, {1, 0, 0}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	// Solution of A x = [4 5 6]' is x = [6 15 -23]'.
	x, err := SolveDense(a, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 15, -23}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveDense(a, []float64{1, 1}); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestLUDeterminant(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 4)
	a.Set(1, 1, 2)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-2) > 1e-12 {
		t.Fatalf("det = %g, want 2", d)
	}
}

// Property: for random well-conditioned matrices, A*(A\b) == b.
func TestLUSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance => well-conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := make([]float64, n)
		a.MulVec(x, r)
		Axpy(-1, b, r)
		if Norm2(r) > 1e-9*(1+Norm2(b)) {
			t.Fatalf("trial %d: residual %g too large", trial, Norm2(r))
		}
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %g", Norm2(x))
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Fatal("NormInf")
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatalf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 || y[1] != 2.5 {
		t.Fatalf("Scale = %v", y)
	}
	z := make([]float64, 3)
	Fill(z, 9)
	if z[2] != 9 {
		t.Fatal("Fill")
	}
	if MaxSlice([]float64{1, 9, 3}) != 9 || MinSlice([]float64{1, 9, 3}) != 1 {
		t.Fatal("Max/MinSlice")
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Norm2 must not overflow for large entries.
	big := math.MaxFloat64 / 2
	if v := Norm2([]float64{big, big}); math.IsInf(v, 0) {
		t.Fatal("Norm2 overflowed")
	}
	if Norm2([]float64{0, 0}) != 0 {
		t.Fatal("Norm2 of zero vector")
	}
}

// TestNorm2EdgeCases covers the all-zero vector and extreme magnitudes,
// where the scaled two-pass form matters: a plain sum of squares would
// overflow to +Inf or underflow to 0.
func TestNorm2EdgeCases(t *testing.T) {
	zero := make([]float64, 1000)
	if got := Norm2(zero); got != 0 {
		t.Fatalf("Norm2(zero) = %g", got)
	}
	// One huge entry among zeros: no overflow, exact answer.
	big := make([]float64, 1000)
	big[777] = 1e300
	if got := Norm2(big); got != 1e300 {
		t.Fatalf("Norm2(huge) = %g", got)
	}
	// Tiny entries whose squares underflow: still the exact scaled norm.
	tiny := []float64{3e-300, 4e-300}
	if got := Norm2(tiny); math.Abs(got-5e-300) > 1e-13*5e-300 {
		t.Fatalf("Norm2(tiny) = %g, want 5e-300", got)
	}
}

func TestNorm2TriangleInequality(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for _, v := range append(a[:], b[:]...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
		}
		sum := make([]float64, 4)
		copy(sum, a[:])
		Axpy(1, b[:], sum)
		return Norm2(sum) <= Norm2(a[:])+Norm2(b[:])+1e-9*(Norm2(a[:])+Norm2(b[:])+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Fatalf("Linspace = %v", xs)
		}
	}
	if xs[len(xs)-1] != 1 {
		t.Fatal("endpoint must be exact")
	}
}
