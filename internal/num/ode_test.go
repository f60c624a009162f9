package num

import (
	"fmt"
	"math"
	"testing"
)

func TestRK4ExponentialDecay(t *testing.T) {
	// y' = -y, y(0) = 1 -> y(2) = e^-2.
	f := func(t float64, y, dydt []float64) { dydt[0] = -y[0] }
	y, err := RK4(f, []float64{1}, 0, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-math.Exp(-2)) > 1e-8 {
		t.Fatalf("y(2) = %.10f, want %.10f", y[0], math.Exp(-2))
	}
}

func TestRK4FourthOrderConvergence(t *testing.T) {
	f := func(t float64, y, dydt []float64) { dydt[0] = math.Cos(t) * y[0] }
	exact := math.Exp(math.Sin(2))
	errAt := func(n int) float64 {
		y, err := RK4(f, []float64{1}, 0, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(y[0] - exact)
	}
	e1, e2 := errAt(40), errAt(80)
	order := math.Log2(e1 / e2)
	if order < 3.7 || order > 4.3 {
		t.Fatalf("observed order %.2f, want ~4", order)
	}
}

func TestRK4Harmonic(t *testing.T) {
	// y'' = -y as a system; energy conserved over one period.
	f := func(t float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	y, err := RK4(f, []float64{1, 0}, 0, 2*math.Pi, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-8 || math.Abs(y[1]) > 1e-8 {
		t.Fatalf("one period: %v", y)
	}
}

func TestRK4Args(t *testing.T) {
	f := func(t float64, y, dydt []float64) { dydt[0] = 0 }
	if _, err := RK4(f, []float64{1}, 0, 1, 0); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := RK4(f, []float64{1}, 1, 0, 10); err == nil {
		t.Fatal("reversed interval accepted")
	}
}

func TestRK45MatchesRK4(t *testing.T) {
	f := func(t float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -math.Sin(y[0]) // pendulum
	}
	y0 := []float64{1.2, 0}
	yRK4, err := RK4(f, y0, 0, 10, 20000)
	if err != nil {
		t.Fatal(err)
	}
	yRK45, err := RK45(f, y0, 0, 10, AdaptiveOptions{RelTol: 1e-10, AbsTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range yRK4 {
		if math.Abs(yRK4[i]-yRK45[i]) > 1e-6 {
			t.Fatalf("component %d: RK4 %.10f vs RK45 %.10f", i, yRK4[i], yRK45[i])
		}
	}
}

func TestRK45StiffnessAdapts(t *testing.T) {
	// Fast transient then slow decay: the adaptive integrator must
	// succeed where a coarse fixed grid would be unstable.
	f := func(t float64, y, dydt []float64) { dydt[0] = -50 * (y[0] - math.Cos(t)) }
	y, err := RK45(f, []float64{0}, 0, 3, AdaptiveOptions{RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// Asymptotic solution ~ (2500 cos t + 50 sin t)/2501.
	want := (2500*math.Cos(3) + 50*math.Sin(3)) / 2501
	if math.Abs(y[0]-want) > 1e-4 {
		t.Fatalf("y(3) = %.6f, want %.6f", y[0], want)
	}
}

func TestRK45Args(t *testing.T) {
	f := func(t float64, y, dydt []float64) { dydt[0] = 0 }
	if _, err := RK45(f, []float64{1}, 1, 1, AdaptiveOptions{}); err == nil {
		t.Fatal("empty interval accepted")
	}
	// Step underflow: a derivative that demands ever-smaller steps.
	bad := func(t float64, y, dydt []float64) {
		dydt[0] = math.NaN()
	}
	if _, err := RK45(bad, []float64{1}, 0, 1, AdaptiveOptions{MaxSteps: 1000}); err == nil {
		t.Fatal("NaN derivative accepted")
	}
}

func TestRK4DoesNotMutateInitialState(t *testing.T) {
	f := func(t float64, y, dydt []float64) { dydt[0] = 1 }
	y0 := []float64{5}
	if _, err := RK4(f, y0, 0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if y0[0] != 5 {
		t.Fatal("RK4 mutated y0")
	}
	if _, err := RK45(f, y0, 0, 1, AdaptiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if y0[0] != 5 {
		t.Fatal("RK45 mutated y0")
	}
}

// AdaptiveOptions configures RK45.
type AdaptiveOptions struct {
	// RelTol, AbsTol are the per-component error tolerances
	// (defaults 1e-8, 1e-10).
	RelTol, AbsTol float64
	// InitialStep (default (t1-t0)/100) and MinStep (default
	// (t1-t0)*1e-12) bound the step size.
	InitialStep, MinStep float64
	// MaxSteps bounds the total accepted+rejected steps (default 1e6).
	MaxSteps int
}

func (o AdaptiveOptions) withDefaults(span float64) AdaptiveOptions {
	if o.RelTol <= 0 {
		o.RelTol = 1e-8
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-10
	}
	if o.InitialStep <= 0 {
		o.InitialStep = span / 100
	}
	if o.MinStep <= 0 {
		o.MinStep = span * 1e-12
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 1_000_000
	}
	return o
}

// RK45 integrates y' = f(t, y) from t0 to t1 with the adaptive
// Dormand-Prince 5(4) pair. y0 is not modified. It is the independent
// reference the fixed-step RK4 is checked against; no production path
// integrates adaptively.
func RK45(f ODEFunc, y0 []float64, t0, t1 float64, opt AdaptiveOptions) ([]float64, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("num: RK45 needs t1 > t0")
	}
	opt = opt.withDefaults(t1 - t0)
	dim := len(y0)
	y := append([]float64(nil), y0...)
	// Dormand-Prince coefficients.
	var (
		c = [7]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
		a = [7][6]float64{
			{},
			{1.0 / 5},
			{3.0 / 40, 9.0 / 40},
			{44.0 / 45, -56.0 / 15, 32.0 / 9},
			{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
			{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
			{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
		}
		b5 = [7]float64{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0}
		b4 = [7]float64{5179.0 / 57600, 0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200, 187.0 / 2100, 1.0 / 40}
	)
	k := make([][]float64, 7)
	for i := range k {
		k[i] = make([]float64, dim)
	}
	tmp := make([]float64, dim)
	y5 := make([]float64, dim)
	t := t0
	h := opt.InitialStep
	for step := 0; step < opt.MaxSteps; step++ {
		if t >= t1 {
			return y, nil
		}
		if t+h > t1 {
			h = t1 - t
		}
		for s := 0; s < 7; s++ {
			copy(tmp, y)
			for j := 0; j < s; j++ {
				if a[s][j] != 0 {
					Axpy(h*a[s][j], k[j], tmp)
				}
			}
			f(t+c[s]*h, tmp, k[s])
		}
		errNorm := 0.0
		for i := 0; i < dim; i++ {
			d5, d4 := 0.0, 0.0
			for s := 0; s < 7; s++ {
				d5 += b5[s] * k[s][i]
				d4 += b4[s] * k[s][i]
			}
			y5[i] = y[i] + h*d5
			scale := opt.AbsTol + opt.RelTol*math.Max(math.Abs(y[i]), math.Abs(y5[i]))
			e := h * (d5 - d4) / scale
			errNorm += e * e
		}
		errNorm = math.Sqrt(errNorm / float64(dim))
		if errNorm <= 1 {
			t += h
			copy(y, y5)
		}
		// PI-free step controller with safety factor.
		factor := 0.9 * math.Pow(math.Max(errNorm, 1e-10), -0.2)
		factor = math.Min(5, math.Max(0.2, factor))
		h *= factor
		if h < opt.MinStep {
			return nil, fmt.Errorf("num: RK45 step underflow at t=%g (err %g)", t, errNorm)
		}
	}
	return nil, fmt.Errorf("%w: RK45 exceeded %d steps", ErrNoConvergence, opt.MaxSteps)
}
