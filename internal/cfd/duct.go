// Package cfd models steady laminar flow in rectangular microchannels
// with engineering correlations (friction factor fRe, Nusselt number,
// Reynolds number). Together these replace the momentum (Navier-Stokes)
// physics the paper obtained from COMSOL: at the channel Reynolds numbers
// involved (Re < ~200) the flow is fully laminar and unidirectional, so
// fully developed duct correlations are the appropriate model. The
// package tests check the correlations against the exact series solution
// and a finite-volume Poiseuille solve.
package cfd

import "fmt"

// Channel describes a straight rectangular microchannel.
type Channel struct {
	Width  float64 // m, the "b" dimension (in-plane)
	Height float64 // m, the "a" dimension (etch depth)
	Length float64 // m, streamwise
}

// Validate reports whether the channel dimensions are physical.
func (c Channel) Validate() error {
	if c.Width <= 0 || c.Height <= 0 || c.Length <= 0 {
		return fmt.Errorf("cfd: nonpositive channel dimension %+v", c)
	}
	return nil
}

// Area returns the cross-sectional area in m2.
func (c Channel) Area() float64 { return c.Width * c.Height }

// Perimeter returns the wetted perimeter in m.
func (c Channel) Perimeter() float64 { return 2 * (c.Width + c.Height) }

// HydraulicDiameter returns Dh = 4A/P in m.
func (c Channel) HydraulicDiameter() float64 { return 4 * c.Area() / c.Perimeter() }

// AspectRatio returns the short-side / long-side ratio in (0, 1].
func (c Channel) AspectRatio() float64 {
	if c.Width < c.Height {
		return c.Width / c.Height
	}
	return c.Height / c.Width
}

// Fluid carries the transport properties needed by the hydrodynamic and
// thermal models.
type Fluid struct {
	Density             float64 // kg/m3
	Viscosity           float64 // Pa.s (dynamic)
	ThermalConductivity float64 // W/(m.K)
	HeatCapacityVol     float64 // J/(m3.K) volumetric heat capacity (rho*cp)
}

// Validate reports whether the fluid properties are physical.
func (f Fluid) Validate() error {
	if f.Density <= 0 || f.Viscosity <= 0 {
		return fmt.Errorf("cfd: nonpositive density/viscosity %+v", f)
	}
	return nil
}

// Reynolds returns the channel Reynolds number at mean velocity v.
func Reynolds(c Channel, f Fluid, v float64) float64 {
	return f.Density * v * c.HydraulicDiameter() / f.Viscosity
}

// MeanVelocity converts a volumetric flow rate (m3/s) to the mean
// velocity in the channel.
func MeanVelocity(c Channel, flowRate float64) float64 { return flowRate / c.Area() }

// FRe returns the laminar friction constant f*Re for a rectangular duct
// of the channel's aspect ratio, based on the hydraulic diameter
// (Shah & London, "Laminar Flow Forced Convection in Ducts", 1978).
// Limits: 96 for parallel plates (aspect -> 0), 56.91 for a square duct.
func FRe(aspect float64) float64 {
	if aspect <= 0 || aspect > 1 {
		panic(fmt.Sprintf("cfd: aspect ratio %g out of (0,1]", aspect))
	}
	a := aspect
	return 96 * (1 - 1.3553*a + 1.9467*a*a - 1.7012*a*a*a + 0.9564*a*a*a*a - 0.2537*a*a*a*a*a)
}

// NusseltH1 returns the fully developed laminar Nusselt number for a
// rectangular duct with the H1 boundary condition (axially constant heat
// flux, peripherally constant temperature), the relevant condition for a
// chip-backside microchannel heat sink (Shah & London).
// Limits: 8.235 for parallel plates, 3.608 for a square duct.
func NusseltH1(aspect float64) float64 {
	if aspect <= 0 || aspect > 1 {
		panic(fmt.Sprintf("cfd: aspect ratio %g out of (0,1]", aspect))
	}
	a := aspect
	return 8.235 * (1 - 2.0421*a + 3.0853*a*a - 2.4765*a*a*a + 1.0578*a*a*a*a - 0.1861*a*a*a*a*a)
}

// HeatTransferCoefficient returns the fully developed convective
// coefficient h = Nu*k/Dh in W/(m2.K) for the duct walls.
func HeatTransferCoefficient(c Channel, f Fluid) float64 {
	return NusseltH1(c.AspectRatio()) * f.ThermalConductivity / c.HydraulicDiameter()
}

// PressureGradient returns -dp/dx (Pa/m, positive for flow in +x) for
// fully developed laminar flow at mean velocity v using fRe.
func PressureGradient(c Channel, f Fluid, v float64) float64 {
	dh := c.HydraulicDiameter()
	return FRe(c.AspectRatio()) * f.Viscosity * v / (2 * dh * dh)
}
