// Package transport solves convective-diffusive species transport in
// microchannel streams: Leveque correlations for electrode
// mass-transfer coefficients, the co-laminar interface mixing width,
// and a finite-volume marching solver for the full 2D concentration
// field. This package, together with cfd, replaces the
// species-conservation physics (paper eq. (12)) that the authors solved
// in COMSOL.
package transport

import (
	"fmt"
	"math"
)

// WallShearRate returns the wall shear rate (1/s) of fully developed
// laminar flow between parallel plates of gap h at mean velocity v:
// gamma = 6 v / h. It is the standard near-electrode approximation for
// high-aspect channels and is accurate to ~15% for the 2:1 ducts used in
// Table II.
func WallShearRate(meanVelocity, gap float64) float64 {
	return 6 * meanVelocity / gap
}

// KmLevequeLocal returns the local mass-transfer coefficient (m/s) at
// streamwise position x from the electrode leading edge for diffusion
// coefficient d and wall shear rate gamma (Leveque similarity solution):
//
//	km(x) = (gamma d^2 / (9 x))^(1/3) / Gamma(4/3)
func KmLevequeLocal(d, gamma, x float64) float64 {
	if x <= 0 {
		panic(fmt.Sprintf("transport: nonpositive x %g", x))
	}
	const gamma43 = 0.8929795115692492 // Gamma(4/3)
	return math.Cbrt(gamma*d*d/(9*x)) / gamma43
}

// KmLevequeAvg returns the length-averaged Leveque mass-transfer
// coefficient over an electrode of length l: the average of x^(-1/3) is
// (3/2) of the value at x=l.
func KmLevequeAvg(d, gamma, l float64) float64 {
	return 1.5 * KmLevequeLocal(d, gamma, l)
}

// MixingWidth returns the diffusive broadening of the co-laminar
// interface after flowing a distance x at mean velocity v:
// w = sqrt(2 d x / v) (one-sigma width on each side of the interface).
// The co-laminar membrane-less design stays functional while w remains
// small against the stream half-width; see Channel.CrossoverCurrent in
// package flowcell for the resulting parasitic loss.
func MixingWidth(d, x, v float64) float64 {
	if v <= 0 {
		panic(fmt.Sprintf("transport: nonpositive velocity %g", v))
	}
	if x < 0 {
		panic(fmt.Sprintf("transport: negative x %g", x))
	}
	return math.Sqrt(2 * d * x / v)
}
