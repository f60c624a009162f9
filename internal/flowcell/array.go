package flowcell

import (
	"context"
	"fmt"

	"bright/internal/cfd"
	"bright/internal/echem"
	"bright/internal/hydro"
	"bright/internal/units"
)

// Array is a set of identical flow-cell channels electrically connected
// in parallel (Fig. 1 of the paper): same terminal voltage, summed
// current.
type Array struct {
	Cell      Cell
	NChannels int
}

// Validate reports whether the array is usable.
func (a *Array) Validate() error {
	if a.NChannels <= 0 {
		return fmt.Errorf("flowcell: array needs at least one channel, got %d", a.NChannels)
	}
	return a.Cell.Validate()
}

// VoltageAtCurrent solves the array terminal voltage at total current
// (split evenly across channels).
func (a *Array) VoltageAtCurrent(total float64) (OperatingPoint, error) {
	if err := a.Validate(); err != nil {
		return OperatingPoint{}, err
	}
	op, err := a.Cell.VoltageAtCurrent(total / float64(a.NChannels))
	if err != nil {
		return OperatingPoint{}, err
	}
	return a.scaleUp(op), nil
}

// CurrentAtVoltage solves the total array current at terminal voltage v.
func (a *Array) CurrentAtVoltage(v float64) (OperatingPoint, error) {
	if err := a.Validate(); err != nil {
		return OperatingPoint{}, err
	}
	op, err := a.Cell.CurrentAtVoltage(v)
	if err != nil {
		return OperatingPoint{}, err
	}
	return a.scaleUp(op), nil
}

// Polarize sweeps the array's V-I characteristic (Fig. 7).
func (a *Array) Polarize(n int, maxFrac float64) (PolarizationCurve, error) {
	return a.PolarizeContext(context.Background(), n, maxFrac)
}

// PolarizeContext is Polarize with cancellation, checked at every sweep
// point.
func (a *Array) PolarizeContext(ctx context.Context, n int, maxFrac float64) (PolarizationCurve, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	curve, err := a.Cell.PolarizeContext(ctx, n, maxFrac)
	if err != nil {
		return nil, err
	}
	out := make(PolarizationCurve, len(curve))
	for k, op := range curve {
		out[k] = a.scaleUp(op)
	}
	return out, nil
}

// scaleUp converts a per-channel operating point to array totals.
// Intensive quantities (voltage, densities, losses) are unchanged.
func (a *Array) scaleUp(op OperatingPoint) OperatingPoint {
	n := float64(a.NChannels)
	op.Current *= n
	op.Power *= n
	return op
}

// LimitingCurrent returns the array's total transport-limited current (A).
func (a *Array) LimitingCurrent() float64 {
	return a.Cell.LimitingCurrent() * float64(a.NChannels)
}

// TotalFlowRate returns the total volumetric flow (m3/s) through the
// array (both streams of every channel).
func (a *Array) TotalFlowRate() float64 {
	return 2 * a.Cell.StreamFlowRate * float64(a.NChannels)
}

// HydraulicNetwork builds the hydro.Network for pressure-drop and
// pumping-power analysis of the array.
func (a *Array) HydraulicNetwork(manifoldK, pumpEfficiency float64) hydro.Network {
	return hydro.Network{
		Channel:        a.Cell.Channel,
		Fluid:          a.Cell.fluid(),
		NChannels:      a.NChannels,
		ManifoldK:      manifoldK,
		PumpEfficiency: pumpEfficiency,
	}
}

// HeatDissipation returns the total electrochemical heat (W) of the
// array at the given operating point.
func (a *Array) HeatDissipation(op OperatingPoint) (float64, error) {
	perChannel, err := a.Cell.HeatDissipation(op.Current/float64(a.NChannels), op.Voltage)
	if err != nil {
		return 0, err
	}
	return perChannel * float64(a.NChannels), nil
}

// --- Paper fixtures -------------------------------------------------

// KjeangCell returns the Table I validation cell of Kjeang et al. 2007
// at the given per-stream flow rate in uL/min (the paper sweeps 2.5, 10,
// 60 and 300). The contact ASR lumps the graphite-rod electrode and
// collector resistances of the experimental cell.
func KjeangCell(flowULMin float64) *Cell {
	return &Cell{
		Channel: cfd.Channel{
			Width:  2e-3,   // electrode gap
			Height: 150e-6, // etch depth
			Length: 33e-3,
		},
		Electrolyte: echem.VanadiumElectrolyte(),
		Anode: ElectrodeSpec{
			Couple:    echem.VanadiumNegative(),
			COxInlet:  80,
			CRedInlet: 920,
		},
		Cathode: ElectrodeSpec{
			Couple:    echem.VanadiumPositive(),
			COxInlet:  992,
			CRedInlet: 8,
		},
		StreamFlowRate:  units.ULPerMinToM3PerS(flowULMin),
		Temperature:     units.StandardTemperature,
		ContactASR:      2.5e-4, // ohm.m2 (2.5 ohm.cm2), graphite-rod cell
		AreaEnhancement: 1,
		Path:            PathCorrelation,
	}
}

// KjeangFlowRatesULMin are the four flow rates of the paper's Fig. 3.
var KjeangFlowRatesULMin = []float64{2.5, 10, 60, 300}

// Power7ArrayEnhancement is the structured-electrode area enhancement
// used for the Table II array. The Rapp 2012 design behind Table II uses
// flow-through (non-planar) electrodes; a 1.65x wetted-area gain is at
// the conservative end of such structures and calibrates the array to
// the paper's 6 A at 1 V headline (see EXPERIMENTS.md).
const Power7ArrayEnhancement = 1.65

// Power7Array returns the 88-channel Table II array integrated on the
// POWER7+ die, at the nominal 676 ml/min total flow and 300 K inlet.
func Power7Array() *Array {
	return &Array{
		Cell:      power7Cell(units.MLPerMinToM3PerS(676), 300),
		NChannels: 88,
	}
}

// Power7ArrayAt returns the Table II array at a custom total flow rate
// (ml/min) and operating temperature (K) — the knobs of the paper's
// Section III-B sensitivity study (676 vs 48 ml/min, 27 vs 37 C inlet).
func Power7ArrayAt(totalMLMin, temperature float64) *Array {
	return &Array{
		Cell:      power7Cell(units.MLPerMinToM3PerS(totalMLMin), temperature),
		NChannels: 88,
	}
}

// Power7ArrayCustom returns a Table II-style array with custom channel
// geometry and channel count at the given total flow (m3/s) and
// temperature (K) — the knob set of the design-space exploration. The
// chemistry, electrolyte, contact resistance and electrode enhancement
// stay at the Table II values.
func Power7ArrayCustom(ch cfd.Channel, nChannels int, totalFlow, temperature float64) *Array {
	cell := power7Cell(totalFlow, temperature)
	cell.Channel = ch
	cell.StreamFlowRate = totalFlow / (2 * float64(nChannels))
	return &Array{Cell: cell, NChannels: nChannels}
}

func power7Cell(totalFlow, temperature float64) Cell {
	perStream := totalFlow / (2 * 88)
	return Cell{
		Channel: cfd.Channel{
			Width:  200e-6,
			Height: 400e-6,
			Length: 22e-3,
		},
		Electrolyte: echem.VanadiumElectrolyte(),
		Anode: ElectrodeSpec{
			Couple:    echem.VanadiumNegativeTableII(),
			COxInlet:  1,
			CRedInlet: 2000,
		},
		Cathode: ElectrodeSpec{
			Couple:    echem.VanadiumPositiveTableII(),
			COxInlet:  2000,
			CRedInlet: 1,
		},
		StreamFlowRate:  perStream,
		Temperature:     temperature,
		ContactASR:      2e-5, // integrated TSV/collector path, ohm.m2
		AreaEnhancement: Power7ArrayEnhancement,
		Path:            PathCorrelation,
	}
}
