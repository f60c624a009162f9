package echem

import (
	"fmt"
	"math"

	"bright/internal/units"
)

// NernstPotential returns the equilibrium electrode potential (V) of a
// couple at temperature t (K) with bulk concentrations cOx and cRed
// (mol/m3), equations (4)-(5) of the paper:
//
//	E = E0 + (R T)/(n F) * ln(C_Ox / C_Red)
//
// Concentration units cancel in the ratio. Both concentrations must be
// positive; the caller is responsible for clamping trace species to a
// small positive floor (the fixtures use 1 mol/m3, as Table II does).
func NernstPotential(c Couple, t, cOx, cRed float64) (float64, error) {
	if t <= 0 {
		return 0, fmt.Errorf("echem: nonpositive temperature %g K", t)
	}
	if cOx <= 0 || cRed <= 0 {
		return 0, fmt.Errorf("echem: nonpositive concentration (Ox=%g, Red=%g)", cOx, cRed)
	}
	return c.E0 + units.GasConstant*t/(float64(c.N)*units.Faraday)*math.Log(cOx/cRed), nil
}

// OpenCircuitVoltage returns the cell OCV U = E_pos - E_neg for the given
// positive and negative half-cell states.
func OpenCircuitVoltage(pos, neg HalfCellState) (float64, error) {
	ePos, err := NernstPotential(pos.Couple, pos.Temperature, pos.COxBulk, pos.CRedBulk)
	if err != nil {
		return 0, fmt.Errorf("positive electrode: %w", err)
	}
	eNeg, err := NernstPotential(neg.Couple, neg.Temperature, neg.COxBulk, neg.CRedBulk)
	if err != nil {
		return 0, fmt.Errorf("negative electrode: %w", err)
	}
	return ePos - eNeg, nil
}

// ThermalVoltage returns RT/F at temperature t, the natural scale of all
// the exponential terms (25.7 mV at 25 C).
func ThermalVoltage(t float64) float64 { return units.GasConstant * t / units.Faraday }
