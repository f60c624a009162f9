package flowcell

import (
	"context"
	"errors"
	"fmt"

	"bright/internal/echem"
	"bright/internal/num"
)

// ErrBeyondLimit is returned when a requested operating point exceeds
// the cell's mass-transport limit.
var ErrBeyondLimit = errors.New("flowcell: operating point beyond mass-transport limit")

// OperatingPoint is one solved cell state.
type OperatingPoint struct {
	Current        float64 // A
	Voltage        float64 // V
	CurrentDensity float64 // A/m2 on the geometric electrode area
	PowerDensity   float64 // W/m2 on the geometric electrode area
	Power          float64 // W
	// Loss decomposition (V, all positive magnitudes).
	OhmicLoss   float64
	AnodeLoss   float64 // charge-transfer + mass-transfer at the anode
	CathodeLoss float64
	OpenCircuit float64
	// Charging marks points produced by the charge solvers (Voltage
	// above OCV, Power = power absorbed).
	Charging bool
}

// VoltageAtCurrent solves the cell voltage at total current i >= 0
// (discharge). It returns ErrBeyondLimit (wrapped) when i exceeds the
// transport limit.
func (c *Cell) VoltageAtCurrent(current float64) (OperatingPoint, error) {
	if err := c.Validate(); err != nil {
		return OperatingPoint{}, err
	}
	if current < 0 {
		return OperatingPoint{}, fmt.Errorf("flowcell: negative current %g (charging is not modeled)", current)
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
		etaA, err = c.halfState(c.Anode).Overpotential(iDens, echem.Oxidation)
		if err == nil {
			etaC, err = c.halfState(c.Cathode).Overpotential(iDens, echem.Reduction)
		}
	case PathFVM:
		etaA, err = c.electrodeFVM(c.Anode, echem.Oxidation, iDens)
		if err == nil {
			etaC, err = c.electrodeFVM(c.Cathode, echem.Reduction, iDens)
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
	v := ocv + etaC - etaA - ohmic
	geo := c.GeometricElectrodeArea()
	return OperatingPoint{
		Current:        current,
		Voltage:        v,
		CurrentDensity: current / geo,
		PowerDensity:   current * v / geo,
		Power:          current * v,
		OhmicLoss:      ohmic,
		AnodeLoss:      etaA,
		CathodeLoss:    -etaC,
		OpenCircuit:    ocv,
	}, nil
}

// effectiveLimit returns the largest solvable current (A) for the active
// path: the correlation path's closed-form limit, or a bisection against
// solver feasibility on the FVM path (whose local depletion limit is
// slightly below the average-km limit).
func (c *Cell) effectiveLimit() (float64, error) {
	iLim := c.LimitingCurrent() - c.CrossoverCurrent()
	if iLim <= 0 {
		return 0, fmt.Errorf("flowcell: crossover exceeds limiting current")
	}
	if c.Path == PathCorrelation {
		return iLim, nil
	}
	solvable := func(i float64) bool {
		_, err := c.VoltageAtCurrent(i)
		return err == nil
	}
	if solvable(iLim) {
		return iLim, nil
	}
	lo, hi := 0.0, iLim
	for k := 0; k < 60 && (hi-lo) > 1e-7*iLim; k++ {
		mid := 0.5 * (lo + hi)
		if solvable(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// CurrentAtVoltage solves the discharge current that produces terminal
// voltage v. Voltages at or above OCV return zero current; voltages the
// cell cannot reach before its transport limit return ErrBeyondLimit.
func (c *Cell) CurrentAtVoltage(voltage float64) (OperatingPoint, error) {
	if err := c.Validate(); err != nil {
		return OperatingPoint{}, err
	}
	ocv, err := c.OpenCircuitVoltage()
	if err != nil {
		return OperatingPoint{}, err
	}
	if voltage >= ocv {
		return c.VoltageAtCurrent(0)
	}
	iLim, err := c.effectiveLimit()
	if err != nil {
		return OperatingPoint{}, err
	}
	iHi := iLim * (1 - 1e-9)
	opHi, err := c.VoltageAtCurrent(iHi)
	if err != nil {
		// Numerical edge: back off slightly further.
		iHi = iLim * (1 - 1e-4)
		opHi, err = c.VoltageAtCurrent(iHi)
		if err != nil {
			return OperatingPoint{}, err
		}
	}
	if voltage < opHi.Voltage {
		return OperatingPoint{}, fmt.Errorf("%w: voltage %.4f V below the limiting-current voltage %.4f V",
			ErrBeyondLimit, voltage, opHi.Voltage)
	}
	g := func(i float64) float64 {
		op, err := c.VoltageAtCurrent(i)
		if err != nil {
			return -1e3 // beyond limit: far below any target voltage
		}
		return op.Voltage - voltage
	}
	iStar, err := num.Brent(g, 0, iHi, 1e-10*iHi)
	if err != nil {
		return OperatingPoint{}, fmt.Errorf("flowcell: solving current at %g V: %w", voltage, err)
	}
	return c.VoltageAtCurrent(iStar)
}

// PolarizationCurve is a swept set of operating points, ordered by
// increasing current.
type PolarizationCurve []OperatingPoint

// Polarize sweeps n operating points from open circuit to maxFrac of the
// effective limiting current (use ~0.98; 1.0 is singular).
func (c *Cell) Polarize(n int, maxFrac float64) (PolarizationCurve, error) {
	return c.PolarizeContext(context.Background(), n, maxFrac)
}

// PolarizeContext is Polarize with cancellation, checked at every sweep
// point (each point is a full nonlinear cell solve, so a canceled
// context aborts within one point's solve time).
func (c *Cell) PolarizeContext(ctx context.Context, n int, maxFrac float64) (PolarizationCurve, error) {
	if n < 2 {
		return nil, fmt.Errorf("flowcell: need at least 2 sweep points, got %d", n)
	}
	if maxFrac <= 0 || maxFrac >= 1 {
		return nil, fmt.Errorf("flowcell: maxFrac %g out of (0,1)", maxFrac)
	}
	iLim, err := c.effectiveLimit()
	if err != nil {
		return nil, err
	}
	currents := num.Linspace(0, maxFrac*iLim, n)
	curve := make(PolarizationCurve, 0, n)
	for _, i := range currents {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		op, err := c.VoltageAtCurrent(i)
		if err != nil {
			return nil, fmt.Errorf("flowcell: sweep at %g A: %w", i, err)
		}
		curve = append(curve, op)
	}
	return curve, nil
}

// MaxPower returns the operating point of maximum power in the curve.
func (pc PolarizationCurve) MaxPower() OperatingPoint {
	if len(pc) == 0 {
		return OperatingPoint{}
	}
	best := pc[0]
	for _, op := range pc[1:] {
		if op.Power > best.Power {
			best = op
		}
	}
	return best
}

// IsMonotoneDecreasing reports whether voltage strictly decreases with
// current along the curve — the qualitative property every physical
// polarization curve must satisfy (asserted by tests for both paths).
func (pc PolarizationCurve) IsMonotoneDecreasing() bool {
	for k := 1; k < len(pc); k++ {
		if pc[k].Voltage >= pc[k-1].Voltage {
			return false
		}
	}
	return true
}
