package flowcell

import (
	"errors"
	"fmt"

	"bright/internal/echem"
	"bright/internal/num"
)

// Charging support. During charge the reactions of Section II run in
// reverse: the negative electrode reduces V(III) back to V(II) and the
// positive electrode oxidizes V(IV) to V(V), so the terminal voltage
// sits *above* the OCV by the same three loss mechanisms. Together with
// the discharge solvers this closes the round-trip of the secondary
// battery the paper's Section II describes.

// ChargeAtCurrent solves the terminal voltage while charging with
// current > 0 (magnitude). The consumed species are the discharge
// products, so a fully charged cell (Table II inlet state, 2000:1) has
// almost no charging headroom — charge from a partially discharged
// state (see AtStateOfCharge).
func (c *Cell) ChargeAtCurrent(current float64) (OperatingPoint, error) {
	if err := c.Validate(); err != nil {
		return OperatingPoint{}, err
	}
	if current < 0 {
		return OperatingPoint{}, fmt.Errorf("flowcell: charge current must be a magnitude, got %g", current)
	}
	ocv, err := c.OpenCircuitVoltage()
	if err != nil {
		return OperatingPoint{}, err
	}
	area := c.ElectrodeArea()
	iDens := (current + c.CrossoverCurrent()) / area

	var etaA, etaC float64
	switch c.Path {
	case PathCorrelation:
		// Anode (negative electrode) runs reduction on charge; cathode
		// (positive electrode) runs oxidation.
		etaA, err = c.halfState(c.Anode).Overpotential(iDens, echem.Reduction)
		if err == nil {
			etaC, err = c.halfState(c.Cathode).Overpotential(iDens, echem.Oxidation)
		}
	case PathFVM:
		etaA, err = c.electrodeFVM(c.Anode, echem.Reduction, iDens)
		if err == nil {
			etaC, err = c.electrodeFVM(c.Cathode, echem.Oxidation, iDens)
		}
	default:
		return OperatingPoint{}, fmt.Errorf("flowcell: unknown solver path %v", c.Path)
	}
	if err != nil {
		if errors.Is(err, echem.ErrMassTransportLimited) {
			return OperatingPoint{}, fmt.Errorf("%w: %v", ErrBeyondLimit, err)
		}
		return OperatingPoint{}, err
	}
	ohmic := iDens * c.OhmicASR()
	// etaC > 0 (oxidation), etaA < 0 (reduction): both push V above OCV.
	v := ocv + etaC - etaA + ohmic
	geo := c.GeometricElectrodeArea()
	return OperatingPoint{
		Current:        current,
		Voltage:        v,
		CurrentDensity: current / geo,
		PowerDensity:   current * v / geo,
		Power:          current * v, // power absorbed from the charger
		OhmicLoss:      ohmic,
		AnodeLoss:      -etaA,
		CathodeLoss:    etaC,
		OpenCircuit:    ocv,
		Charging:       true,
	}, nil
}

// ChargingLimitingCurrent returns the transport-limited charging
// current (A): on charge the anode consumes its oxidized species and
// the cathode its reduced species.
func (c *Cell) ChargingLimitingCurrent() float64 {
	a := c.halfState(c.Anode).LimitingCurrentDensity(echem.Reduction)
	k := c.halfState(c.Cathode).LimitingCurrentDensity(echem.Oxidation)
	if k < a {
		a = k
	}
	return a * c.ElectrodeArea()
}

// AtStateOfCharge returns a copy of the cell with both electrolytes set
// to the given state of charge (fraction in (0, 1)) at the same total
// vanadium concentration per side. SOC 1 is the fully charged Table II
// state; SOC 0.5 is the natural state for round-trip studies.
func (c *Cell) AtStateOfCharge(soc float64) (*Cell, error) {
	if soc <= 0 || soc >= 1 {
		return nil, fmt.Errorf("flowcell: SOC %g out of (0,1)", soc)
	}
	out := *c
	totalA := c.Anode.COxInlet + c.Anode.CRedInlet
	totalC := c.Cathode.COxInlet + c.Cathode.CRedInlet
	// Anode charged species is Red (fuel), cathode charged species is Ox.
	out.Anode.CRedInlet = soc * totalA
	out.Anode.COxInlet = (1 - soc) * totalA
	out.Cathode.COxInlet = soc * totalC
	out.Cathode.CRedInlet = (1 - soc) * totalC
	return &out, nil
}

// RoundTripPoint is one current level of a round-trip efficiency sweep.
type RoundTripPoint struct {
	Current          float64 // A
	DischargeVoltage float64 // V
	ChargeVoltage    float64 // V
	// Efficiency is the voltage efficiency V_dis/V_chg (coulombic
	// efficiency is ~1 for the crossover-free co-laminar design).
	Efficiency float64
}

// RoundTripEfficiency sweeps symmetric charge/discharge currents at the
// given state of charge and returns the voltage-efficiency curve, the
// round-trip figure of merit of the flow battery.
func (c *Cell) RoundTripEfficiency(soc float64, n int, maxFrac float64) ([]RoundTripPoint, error) {
	if n < 2 {
		return nil, fmt.Errorf("flowcell: need >= 2 sweep points, got %d", n)
	}
	if maxFrac <= 0 || maxFrac >= 1 {
		return nil, fmt.Errorf("flowcell: maxFrac %g out of (0,1)", maxFrac)
	}
	cell, err := c.AtStateOfCharge(soc)
	if err != nil {
		return nil, err
	}
	iLim := cell.LimitingCurrent()
	if chg := cell.ChargingLimitingCurrent(); chg < iLim {
		iLim = chg
	}
	currents := num.Linspace(0, maxFrac*iLim, n+1)[1:] // skip 0 (efficiency is 1 there)
	out := make([]RoundTripPoint, 0, n)
	for _, i := range currents {
		dis, err := cell.VoltageAtCurrent(i)
		if err != nil {
			return nil, fmt.Errorf("flowcell: round-trip discharge at %g A: %w", i, err)
		}
		chg, err := cell.ChargeAtCurrent(i)
		if err != nil {
			return nil, fmt.Errorf("flowcell: round-trip charge at %g A: %w", i, err)
		}
		out = append(out, RoundTripPoint{
			Current:          i,
			DischargeVoltage: dis.Voltage,
			ChargeVoltage:    chg.Voltage,
			Efficiency:       dis.Voltage / chg.Voltage,
		})
	}
	return out, nil
}
