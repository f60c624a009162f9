package flowcell

import (
	"errors"
	"fmt"

	"bright/internal/units"
)

// Reservoir tracks the electrolyte inventory feeding an array. Redox
// flow cells are secondary batteries that store energy in the
// electrolyte (paper Section II: "the independent dimensioning of
// energy storage capacity (size of electrolyte reservoir) and power
// density"); discharging converts the charged species (anode Red,
// cathode Ox) into their counterparts, shifting the Nernst potentials
// and eventually starving the cell.
type Reservoir struct {
	// Volume is the electrolyte volume per half-cell reservoir (m3);
	// both sides are sized equally, the standard symmetric design.
	Volume float64
	// AnodeOx/AnodeRed and CathodeOx/CathodeRed are the current molar
	// inventories divided by Volume (mol/m3), i.e. the instantaneous
	// reservoir concentrations. Initialize from the array's inlet spec
	// via NewReservoir.
	AnodeOx, AnodeRed     float64
	CathodeOx, CathodeRed float64
}

// NewReservoir creates a fully mixed reservoir of the given per-side
// volume (m3) holding the array's inlet electrolyte state.
func NewReservoir(a *Array, volume float64) (*Reservoir, error) {
	if volume <= 0 {
		return nil, fmt.Errorf("flowcell: nonpositive reservoir volume %g", volume)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &Reservoir{
		Volume:     volume,
		AnodeOx:    a.Cell.Anode.COxInlet,
		AnodeRed:   a.Cell.Anode.CRedInlet,
		CathodeOx:  a.Cell.Cathode.COxInlet,
		CathodeRed: a.Cell.Cathode.CRedInlet,
	}, nil
}

// StateOfCharge returns the limiting state of charge in [0, 1]: the
// lesser of the anode fuel fraction and the cathode oxidant fraction.
func (r *Reservoir) StateOfCharge() float64 {
	socA := r.AnodeRed / (r.AnodeRed + r.AnodeOx)
	socC := r.CathodeOx / (r.CathodeOx + r.CathodeRed)
	if socA < socC {
		return socA
	}
	return socC
}

// applyTo writes the reservoir state into the array's inlet spec,
// flooring trace species at 1 mol/m3 (as Table II does).
func (r *Reservoir) applyTo(a *Array) {
	floor := func(c float64) float64 {
		if c < 1 {
			return 1
		}
		return c
	}
	a.Cell.Anode.COxInlet = floor(r.AnodeOx)
	a.Cell.Anode.CRedInlet = floor(r.AnodeRed)
	a.Cell.Cathode.COxInlet = floor(r.CathodeOx)
	a.Cell.Cathode.CRedInlet = floor(r.CathodeRed)
}

// drain converts charge Q (coulombs) of discharge: the anode oxidizes
// Red -> Ox, the cathode reduces Ox -> Red.
func (r *Reservoir) drain(q float64, n int) {
	dmol := q / (float64(n) * units.Faraday) / r.Volume
	r.AnodeRed -= dmol
	r.AnodeOx += dmol
	r.CathodeOx -= dmol
	r.CathodeRed += dmol
}

// DischargePoint is one sampled instant of a constant-voltage
// discharge.
type DischargePoint struct {
	TimeS    float64
	SOC      float64
	CurrentA float64
	PowerW   float64
	OCV      float64
}

// DischargeResult summarizes a constant-voltage discharge run.
type DischargeResult struct {
	Points []DischargePoint
	// CapacityAh is the charge delivered until cutoff.
	CapacityAh float64
	// EnergyWh is the electric energy delivered.
	EnergyWh float64
	// EnergyDensityWhPerL references the energy to the *total*
	// electrolyte volume (both reservoirs).
	EnergyDensityWhPerL float64
	// CutoffSOC is the state of charge at termination.
	CutoffSOC float64
	// DurationS is the discharge time until cutoff.
	DurationS float64
}

// ErrDepleted is returned (wrapped) when the reservoir can no longer
// sustain the requested terminal voltage.
var ErrDepleted = errors.New("flowcell: reservoir depleted")

// DischargeConstantVoltage drains the reservoir through the array at a
// fixed terminal voltage, stepping dt seconds up to maxSteps, stopping
// when the state of charge reaches socCutoff or the cell can no longer
// hold the voltage. The array's inlet concentrations are updated from
// the (well mixed) reservoir each step — the quasi-static approximation
// valid when the loop circulation time is short against the discharge
// time, as it is for any practical reservoir.
func (r *Reservoir) DischargeConstantVoltage(a *Array, voltage, dt, socCutoff float64, maxSteps int) (*DischargeResult, error) {
	if dt <= 0 || maxSteps <= 0 {
		return nil, fmt.Errorf("flowcell: invalid discharge stepping dt=%g steps=%d", dt, maxSteps)
	}
	if socCutoff <= 0 || socCutoff >= 1 {
		return nil, fmt.Errorf("flowcell: SOC cutoff %g out of (0,1)", socCutoff)
	}
	work := *a // shallow copy; we mutate inlet concentrations only
	res := &DischargeResult{}
	var charge, energy float64
	for step := 0; step < maxSteps; step++ {
		r.applyTo(&work)
		soc := r.StateOfCharge()
		if soc <= socCutoff {
			break
		}
		op, err := work.CurrentAtVoltage(voltage)
		if err != nil {
			if errors.Is(err, ErrBeyondLimit) {
				break // voltage no longer sustainable: natural cutoff
			}
			return nil, err
		}
		if op.Current <= 0 {
			break // OCV fell to the terminal voltage
		}
		ocv, err := work.Cell.OpenCircuitVoltage()
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, DischargePoint{
			TimeS:    float64(step) * dt,
			SOC:      soc,
			CurrentA: op.Current,
			PowerW:   op.Power,
			OCV:      ocv,
		})
		r.drain(op.Current*dt, work.Cell.Anode.Couple.N)
		charge += op.Current * dt
		energy += op.Power * dt
		res.DurationS = float64(step+1) * dt
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("%w: no dischargeable state at %g V", ErrDepleted, voltage)
	}
	res.CapacityAh = charge / 3600
	res.EnergyWh = energy / 3600
	res.EnergyDensityWhPerL = res.EnergyWh / (2 * r.Volume * 1000)
	res.CutoffSOC = r.StateOfCharge()
	return res, nil
}

// TheoreticalCapacityAh returns the charge stored in the limiting
// reservoir at its current state (Ah), the n F C V bound the discharge
// can approach but not exceed.
func (r *Reservoir) TheoreticalCapacityAh(n int) float64 {
	limiting := r.AnodeRed
	if r.CathodeOx < limiting {
		limiting = r.CathodeOx
	}
	return float64(n) * units.Faraday * limiting * r.Volume / 3600
}
