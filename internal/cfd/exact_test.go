package cfd

// The exact series solution of fully developed laminar flow in a
// rectangular duct (White, Viscous Fluid Flow). Production code uses
// the fRe and Nusselt correlations; these series are the independent
// references the correlations and the finite-volume solve in
// poiseuille_test.go are checked against.

import "math"

// seriesTerms controls the truncation of the exact duct solutions. The
// series converge like 1/n^5; 40 odd terms give ~1e-12 relative accuracy.
const seriesTerms = 40

// ExactFlowRate returns the volumetric flow rate (m3/s) for a given
// pressure gradient G = -dp/dx using the exact series solution for a
// rectangular duct (White, Viscous Fluid Flow):
//
//	Q = (4 b a^3 G)/(3 mu) * [1 - (192 a)/(pi^5 b) * sum tanh(n pi b / 2a)/n^5]
//
// with 2a = short side, 2b = long side.
func ExactFlowRate(c Channel, f Fluid, gradient float64) float64 {
	short, long := c.Height, c.Width
	if short > long {
		short, long = long, short
	}
	a := short / 2
	b := long / 2
	sum := 0.0
	for k := 0; k < seriesTerms; k++ {
		n := float64(2*k + 1)
		sum += math.Tanh(n*math.Pi*b/(2*a)) / math.Pow(n, 5)
	}
	factor := 1 - (192*a/(math.Pi*math.Pi*math.Pi*math.Pi*math.Pi*b))*sum
	return (4 * b * a * a * a * gradient / (3 * f.Viscosity)) * factor
}

// ExactPressureGradient inverts ExactFlowRate: the pressure gradient
// needed to drive the given flow rate. The relation is linear, so the
// inverse is a single division.
func ExactPressureGradient(c Channel, f Fluid, flowRate float64) float64 {
	unit := ExactFlowRate(c, f, 1.0)
	return flowRate / unit
}

// ExactVelocity returns the local streamwise velocity at cross-section
// position (y, z) for pressure gradient G = -dp/dx. Coordinates are
// measured from the duct center: |y| <= long/2, |z| <= short/2.
func ExactVelocity(c Channel, f Fluid, gradient, y, z float64) float64 {
	short, long := c.Height, c.Width
	if short > long {
		short, long = long, short
		y, z = z, y
	}
	a := short / 2
	b := long / 2
	// White's form: u(y,z) with z across the short side.
	sum := 0.0
	for k := 0; k < seriesTerms; k++ {
		n := float64(2*k + 1)
		sign := 1.0
		if k%2 == 1 {
			sign = -1
		}
		sum += sign / (n * n * n) *
			(1 - math.Cosh(n*math.Pi*y/(2*a))/math.Cosh(n*math.Pi*b/(2*a))) *
			math.Cos(n*math.Pi*z/(2*a))
	}
	return (16 * a * a * gradient / (f.Viscosity * math.Pi * math.Pi * math.Pi)) * sum
}

// ExactFReCheck computes fRe from the exact series solution, providing an
// internal consistency check against the FRe correlation.
func ExactFReCheck(c Channel, f Fluid) float64 {
	g := 1.0 // arbitrary gradient; fRe is geometry-only
	q := ExactFlowRate(c, f, g)
	v := q / c.Area()
	dh := c.HydraulicDiameter()
	// G = fRe * mu * v / (2 Dh^2)  =>  fRe = 2 G Dh^2 / (mu v)
	return 2 * g * dh * dh / (f.Viscosity * v)
}

// WallShearMeanVelocityRatio returns u_max/u_mean for the duct, from the
// exact solution. For parallel plates this is 1.5, for a square duct
// about 2.096.
func WallShearMeanVelocityRatio(c Channel, f Fluid) float64 {
	g := 1.0
	umax := ExactVelocity(c, f, g, 0, 0)
	v := ExactFlowRate(c, f, g) / c.Area()
	return umax / v
}
