package num

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSolveTridiagKnown(t *testing.T) {
	// System: [2 -1 0; -1 2 -1; 0 -1 2] x = [1 0 1] => x = [1 1 1].
	a := []float64{0, -1, -1}
	b := []float64{2, 2, 2}
	c := []float64{-1, -1, 0}
	d := []float64{1, 0, 1}
	x, err := SolveTridiag(a, b, c, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-1) > 1e-13 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveTridiagAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		dm := NewDense(n, n)
		for i := 0; i < n; i++ {
			b[i] = 4 + rng.Float64()
			dm.Set(i, i, b[i])
			if i > 0 {
				a[i] = rng.NormFloat64()
				dm.Set(i, i-1, a[i])
			}
			if i < n-1 {
				c[i] = rng.NormFloat64()
				dm.Set(i, i+1, c[i])
			}
			d[i] = rng.NormFloat64()
		}
		x1, err := SolveTridiag(a, b, c, d)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := SolveDense(dm, d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-10*(1+math.Abs(x2[i])) {
				t.Fatalf("trial %d row %d: thomas %g vs LU %g", trial, i, x1[i], x2[i])
			}
		}
	}
}

func TestSolveTridiagEdge(t *testing.T) {
	x, err := SolveTridiag([]float64{0}, []float64{5}, []float64{0}, []float64{10})
	if err != nil || x[0] != 2 {
		t.Fatalf("1x1 solve: x=%v err=%v", x, err)
	}
	if _, err := SolveTridiag([]float64{0}, []float64{0}, []float64{0}, []float64{1}); err == nil {
		t.Fatal("singular 1x1 must error")
	}
	if _, err := SolveTridiag(nil, nil, nil, nil); err != nil {
		t.Fatal("empty system should be a no-op")
	}
	if _, err := SolveTridiag([]float64{0, 0}, []float64{1}, []float64{0}, []float64{1}); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestBrentPolynomial(t *testing.T) {
	// Root of x^3 - 2x - 5 near 2.0945514815.
	f := func(x float64) float64 { return x*x*x - 2*x - 5 }
	x, err := Brent(f, 2, 3, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-2.0945514815423265) > 1e-10 {
		t.Fatalf("x = %.12f", x)
	}
}

func TestBrentEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Brent(f, 0, 1, 1e-14); err != nil || x != 0 {
		t.Fatalf("endpoint root: x=%g err=%v", x, err)
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Brent(f, -1, 1, 1e-12); err == nil {
		t.Fatal("must report missing bracket")
	}
}

func TestBrentTranscendental(t *testing.T) {
	// cos(x) = x at 0.7390851332.
	f := func(x float64) float64 { return math.Cos(x) - x }
	x, err := Brent(f, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-0.7390851332151607) > 1e-9 {
		t.Fatalf("x = %.12f", x)
	}
}

func TestExpandBracket(t *testing.T) {
	f := func(x float64) float64 { return x - 100 }
	a, b, err := ExpandBracket(f, 0, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !(f(a) <= 0 && f(b) >= 0) {
		t.Fatalf("bracket [%g,%g] does not straddle root", a, b)
	}
	if _, _, err := ExpandBracket(func(float64) float64 { return 1 }, 0, 1, 5); err == nil {
		t.Fatal("rootless function must fail to bracket")
	}
}

func TestLinearInterp(t *testing.T) {
	l, err := NewLinear([]float64{0, 1, 2}, []float64{0, 10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if l.Eval(0.5) != 5 || l.Eval(1.5) != 5 {
		t.Fatalf("midpoints: %g %g", l.Eval(0.5), l.Eval(1.5))
	}
	// Extrapolation continues the end segments.
	if l.Eval(3) != -10 {
		t.Fatalf("extrapolation = %g", l.Eval(3))
	}
	if _, err := NewLinear([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing abscissae must error")
	}
	if _, err := NewLinear([]float64{0}, []float64{1}); err == nil {
		t.Fatal("single point must error")
	}
}

func TestPCHIPInterpolatesNodes(t *testing.T) {
	xs := []float64{0, 1, 3, 4.5, 7}
	ys := []float64{1, 4, 2, 2, 8}
	p, err := NewPCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Abs(p.Eval(xs[i])-ys[i]) > 1e-12 {
			t.Fatalf("node %d: %g != %g", i, p.Eval(xs[i]), ys[i])
		}
	}
}

func TestPCHIPMonotonePreserving(t *testing.T) {
	// Monotone data must yield a monotone interpolant (no overshoot).
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 0.1, 0.5, 0.9, 1}
	p, err := NewPCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	prev := p.Eval(0)
	for x := 0.01; x <= 4.0; x += 0.01 {
		v := p.Eval(x)
		if v < prev-1e-12 {
			t.Fatalf("non-monotone at x=%g: %g < %g", x, v, prev)
		}
		if v < -1e-12 || v > 1+1e-12 {
			t.Fatalf("overshoot at x=%g: %g", x, v)
		}
		prev = v
	}
}

func TestPCHIPTwoPoints(t *testing.T) {
	p, err := NewPCHIP([]float64{0, 2}, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Eval(1)-3) > 1e-12 {
		t.Fatalf("two-point PCHIP should be linear: %g", p.Eval(1))
	}
}

func TestGaussLegendreExactness(t *testing.T) {
	// 3-point rule is exact for degree-5 polynomials.
	f := func(x float64) float64 { return 5*math.Pow(x, 5) - x*x + 3 }
	got := GaussLegendre(f, -1, 2, 3)
	// Analytic: [5x^6/6 - x^3/3 + 3x] from -1 to 2 = 58.5.
	want := (5.0/6*64 - 8.0/3 + 6) - (5.0/6 + 1.0/3 - 3)
	if math.Abs(got-want) > 1e-10 {
		t.Fatalf("got %g want %g", got, want)
	}
}

func TestQuadratureCrossCheck(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x) * math.Sin(3*x) }
	g := GaussLegendre(f, 0, 2, 7) // falls back to composite
	s := CompositeSimpson(f, 0, 2, 400)
	if math.Abs(g-s) > 1e-7 {
		t.Fatalf("Gauss %g vs Simpson %g", g, s)
	}
}

func TestTrapzUniform(t *testing.T) {
	ys := []float64{0, 1, 2, 3}
	if v := TrapzUniform(ys, 1); math.Abs(v-4.5) > 1e-14 {
		t.Fatalf("trapz = %g", v)
	}
	if TrapzUniform([]float64{5}, 1) != 0 {
		t.Fatal("degenerate trapz")
	}
}

func TestPCHIPNeverOvershootsProperty(t *testing.T) {
	f := func(raw [6]float64) bool {
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := make([]float64, 6)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
			ys[i] = v
		}
		p, err := NewPCHIP(xs, ys)
		if err != nil {
			return false
		}
		lo, hi := MinSlice(ys), slices.Max(ys)
		span := hi - lo
		for x := 0.0; x <= 5.0; x += 0.05 {
			v := p.Eval(x)
			if v < lo-1e-9*(1+span) || v > hi+1e-9*(1+span) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
