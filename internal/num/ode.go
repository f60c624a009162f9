package num

import "fmt"

// ODEFunc evaluates the time derivative dy/dt = f(t, y) into dydt.
// The slices have equal length and dydt must be fully overwritten.
type ODEFunc func(t float64, y, dydt []float64)

// RK4 integrates y' = f(t, y) from t0 to t1 with n fixed fourth-order
// Runge-Kutta steps. y0 is not modified; the final state is returned in
// a fresh slice.
func RK4(f ODEFunc, y0 []float64, t0, t1 float64, n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("num: RK4 needs at least one step")
	}
	if t1 <= t0 {
		return nil, fmt.Errorf("num: RK4 needs t1 > t0")
	}
	dim := len(y0)
	y := append([]float64(nil), y0...)
	k1 := make([]float64, dim)
	k2 := make([]float64, dim)
	k3 := make([]float64, dim)
	k4 := make([]float64, dim)
	tmp := make([]float64, dim)
	h := (t1 - t0) / float64(n)
	t := t0
	for s := 0; s < n; s++ {
		f(t, y, k1)
		for i := range tmp {
			tmp[i] = y[i] + h/2*k1[i]
		}
		f(t+h/2, tmp, k2)
		for i := range tmp {
			tmp[i] = y[i] + h/2*k2[i]
		}
		f(t+h/2, tmp, k3)
		for i := range tmp {
			tmp[i] = y[i] + h*k3[i]
		}
		f(t+h, tmp, k4)
		for i := range y {
			y[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t += h
	}
	return y, nil
}
