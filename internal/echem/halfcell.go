package echem

import (
	"errors"
	"fmt"
	"math"

	"bright/internal/num"
	"bright/internal/units"
)

// ErrMassTransportLimited is returned when a requested current density
// exceeds the limiting current of the electrode, so no steady operating
// point exists.
var ErrMassTransportLimited = errors.New("echem: current exceeds mass-transport limit")

// HalfCellState is the operating state of one electrode: the couple, the
// bulk (inlet) concentrations, the local temperature and the
// mass-transfer coefficients that the hydrodynamics provide.
type HalfCellState struct {
	Couple Couple
	// COxBulk and CRedBulk are bulk concentrations in mol/m3.
	COxBulk, CRedBulk float64
	// Temperature in K.
	Temperature float64
	// KmOx and KmRed are mass-transfer coefficients (m/s) for the
	// oxidized and reduced species between bulk and electrode surface.
	// They come from the Leveque/Graetz correlations or the FVM
	// transport solve in package transport.
	KmOx, KmRed float64
}

// Validate reports whether the state is physically usable.
func (h HalfCellState) Validate() error {
	if err := h.Couple.Validate(); err != nil {
		return err
	}
	if h.COxBulk <= 0 || h.CRedBulk <= 0 {
		return fmt.Errorf("echem: nonpositive bulk concentration (Ox=%g, Red=%g)", h.COxBulk, h.CRedBulk)
	}
	if h.Temperature <= 0 {
		return fmt.Errorf("echem: nonpositive temperature %g", h.Temperature)
	}
	if h.KmOx <= 0 || h.KmRed <= 0 {
		return fmt.Errorf("echem: nonpositive mass-transfer coefficient (Ox=%g, Red=%g)", h.KmOx, h.KmRed)
	}
	return nil
}

// ExchangeCurrentDensity returns i0 = n F k0(T) COx^alpha CRed^(1-alpha)
// in A/m2, the paper's definition below equation (6).
func (h HalfCellState) ExchangeCurrentDensity() float64 {
	c := h.Couple
	k0 := c.K0(h.Temperature)
	return float64(c.N) * units.Faraday * k0 *
		math.Pow(h.COxBulk, c.Alpha) * math.Pow(h.CRedBulk, 1-c.Alpha)
}

// LimitingCurrentDensity returns the mass-transport limiting current
// density (A/m2) for the given reaction direction: the current at which
// the consumed species' surface concentration reaches zero.
func (h HalfCellState) LimitingCurrentDensity(mode Mode) float64 {
	nf := float64(h.Couple.N) * units.Faraday
	if mode == Oxidation {
		return nf * h.KmRed * h.CRedBulk
	}
	return nf * h.KmOx * h.COxBulk
}

// SurfaceConcentrations returns (COx, CRed) at the electrode surface for
// current density i (A/m2, magnitude) in the given direction, from the
// steady mass balance i = n F km (Cbulk - Csurf) for the consumed species
// and the mirrored relation for the produced one.
func (h HalfCellState) SurfaceConcentrations(i float64, mode Mode) (cOx, cRed float64, err error) {
	if i < 0 {
		return 0, 0, fmt.Errorf("echem: negative current density %g (direction is carried by Mode)", i)
	}
	nf := float64(h.Couple.N) * units.Faraday
	if mode == Oxidation {
		cRed = h.CRedBulk - i/(nf*h.KmRed)
		cOx = h.COxBulk + i/(nf*h.KmOx)
	} else {
		cOx = h.COxBulk - i/(nf*h.KmOx)
		cRed = h.CRedBulk + i/(nf*h.KmRed)
	}
	if cOx <= 0 || cRed <= 0 {
		return cOx, cRed, fmt.Errorf("%w: i=%g A/m2, iL=%g A/m2",
			ErrMassTransportLimited, i, h.LimitingCurrentDensity(mode))
	}
	return cOx, cRed, nil
}

// CurrentDensity evaluates the Butler-Volmer relation (paper eq. (6),
// with the physically correct exponent F eta/(R T); the paper's printed
// RT eta/F is a typesetting slip) at overpotential eta using the surface
// concentrations implied by the current ix already drawn:
//
//	i(eta) = i0 [ (CRed_s/CRed_b) e^{alpha f eta} - (COx_s/COx_b) e^{-(1-alpha) f eta} ]
//
// with f = n F/(R T). Positive result = net oxidation.
func (h HalfCellState) CurrentDensity(eta float64, cOxSurf, cRedSurf float64) float64 {
	c := h.Couple
	i0 := h.ExchangeCurrentDensity()
	f := float64(c.N) * units.Faraday / (units.GasConstant * h.Temperature)
	return i0 * (cRedSurf/h.CRedBulk*math.Exp(c.Alpha*f*eta) -
		cOxSurf/h.COxBulk*math.Exp(-(1-c.Alpha)*f*eta))
}

// Overpotential solves the Butler-Volmer relation for the signed
// overpotential eta that sustains current density i (magnitude) in the
// given direction, including the mass-transfer contribution through the
// surface concentrations. For i = 0 it returns 0.
func (h HalfCellState) Overpotential(i float64, mode Mode) (float64, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	if i == 0 {
		return 0, nil
	}
	cOxS, cRedS, err := h.SurfaceConcentrations(i, mode)
	if err != nil {
		return 0, err
	}
	target := i
	if mode == Reduction {
		target = -i
	}
	g := func(eta float64) float64 {
		return h.CurrentDensity(eta, cOxS, cRedS) - target
	}
	// The net current is strictly increasing in eta, so a sign-change
	// bracket always exists; expand from a thermal-voltage-scale window.
	vt := ThermalVoltage(h.Temperature)
	var lo, hi float64
	if mode == Oxidation {
		lo, hi = 0, 10*vt
	} else {
		lo, hi = -10*vt, 0
	}
	lo, hi, err = num.ExpandBracket(g, lo, hi, 60)
	if err != nil {
		return 0, fmt.Errorf("echem: bracketing overpotential for i=%g (%s): %w", i, mode, err)
	}
	eta, err := num.Brent(g, lo, hi, 1e-12)
	if err != nil {
		return 0, fmt.Errorf("echem: solving overpotential for i=%g (%s): %w", i, mode, err)
	}
	return eta, nil
}
