package flowcell

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// VoltageAt linearly interpolates the curve's voltage at the given
// current; it returns an error outside the swept range. The tests use it
// to read a swept curve between its points.
func (pc PolarizationCurve) VoltageAt(current float64) (float64, error) {
	if len(pc) < 2 {
		return 0, fmt.Errorf("flowcell: curve too short")
	}
	if current < pc[0].Current || current > pc[len(pc)-1].Current {
		return 0, fmt.Errorf("flowcell: current %g outside swept range [%g, %g]",
			current, pc[0].Current, pc[len(pc)-1].Current)
	}
	for k := 1; k < len(pc); k++ {
		if current <= pc[k].Current {
			lo, hi := pc[k-1], pc[k]
			t := (current - lo.Current) / (hi.Current - lo.Current)
			return lo.Voltage + t*(hi.Voltage-lo.Voltage), nil
		}
	}
	return pc[len(pc)-1].Voltage, nil
}

func TestPolarizationCurveShape(t *testing.T) {
	for _, q := range KjeangFlowRatesULMin {
		c := KjeangCell(q)
		curve, err := c.Polarize(15, 0.97)
		if err != nil {
			t.Fatalf("%g uL/min: %v", q, err)
		}
		if len(curve) != 15 {
			t.Fatalf("curve length %d", len(curve))
		}
		if !curve.IsMonotoneDecreasing() {
			t.Fatalf("%g uL/min: voltage not monotone decreasing", q)
		}
		// First point is open circuit (up to the tiny crossover-induced
		// mixed-potential depression, micro-volts here).
		if curve[0].Current != 0 || math.Abs(curve[0].Voltage-curve[0].OpenCircuit) > 1e-4 {
			t.Fatalf("%g uL/min: first point not OCV: %+v", q, curve[0])
		}
		// All voltages positive over the swept range (cells stay useful
		// to ~97%% of limiting in this chemistry).
		for _, op := range curve {
			if op.Voltage <= 0 {
				t.Fatalf("%g uL/min: nonpositive voltage %g at i=%g", q, op.Voltage, op.Current)
			}
		}
	}
}

func TestHigherFlowHigherCurve(t *testing.T) {
	// At any shared current, the faster-fed cell must sit at equal or
	// higher voltage (thinner boundary layers) — the Fig. 3 ordering.
	cLow := KjeangCell(10)
	cHigh := KjeangCell(300)
	iShared := 0.8 * cLow.LimitingCurrent()
	opLow, err := cLow.VoltageAtCurrent(iShared)
	if err != nil {
		t.Fatal(err)
	}
	opHigh, err := cHigh.VoltageAtCurrent(iShared)
	if err != nil {
		t.Fatal(err)
	}
	if opHigh.Voltage <= opLow.Voltage {
		t.Fatalf("flow ordering violated: %g vs %g", opHigh.Voltage, opLow.Voltage)
	}
}

func TestVoltageCurrentRoundTrip(t *testing.T) {
	c := KjeangCell(60)
	op, err := c.VoltageAtCurrent(0.6 * c.LimitingCurrent())
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.CurrentAtVoltage(op.Voltage)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, back.Current, op.Current, 1e-6, "V->I->V round trip")
}

func TestCurrentAtVoltageEdges(t *testing.T) {
	c := KjeangCell(60)
	ocv, _ := c.OpenCircuitVoltage()
	// At or above OCV: zero current.
	op, err := c.CurrentAtVoltage(ocv + 0.1)
	if err != nil || op.Current != 0 {
		t.Fatalf("above-OCV point: %+v err=%v", op, err)
	}
	// Far below the limiting voltage: ErrBeyondLimit.
	if _, err := c.CurrentAtVoltage(0.01); !errors.Is(err, ErrBeyondLimit) {
		t.Fatalf("expected ErrBeyondLimit, got %v", err)
	}
	// Negative current rejected.
	if _, err := c.VoltageAtCurrent(-1); err == nil {
		t.Fatal("negative current accepted")
	}
}

func TestBeyondLimitError(t *testing.T) {
	c := KjeangCell(60)
	if _, err := c.VoltageAtCurrent(1.01 * c.LimitingCurrent()); !errors.Is(err, ErrBeyondLimit) {
		t.Fatalf("expected ErrBeyondLimit, got %v", err)
	}
}

func TestLossDecomposition(t *testing.T) {
	c := KjeangCell(60)
	op, err := c.VoltageAtCurrent(0.5 * c.LimitingCurrent())
	if err != nil {
		t.Fatal(err)
	}
	// V = OCV - anode - cathode - ohmic.
	sum := op.OpenCircuit - op.AnodeLoss - op.CathodeLoss - op.OhmicLoss
	approx(t, op.Voltage, sum, 1e-9, "loss budget closes")
	if op.AnodeLoss <= 0 || op.CathodeLoss <= 0 || op.OhmicLoss <= 0 {
		t.Fatalf("all losses must be positive under load: %+v", op)
	}
}

func TestMaxPowerInInterior(t *testing.T) {
	c := KjeangCell(300)
	curve, err := c.Polarize(40, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	best := curve.MaxPower()
	if best.Current == 0 || best.Current == curve[len(curve)-1].Current {
		t.Fatalf("max power at sweep boundary: %+v", best)
	}
	// Peak power density for the validation cell sits in the tens of
	// mW/cm2 (the experimental cell peaked around 20-35 mW/cm2).
	pd := best.PowerDensity * 1e-4 * 1e3 // W/m2 -> mW/cm2
	if pd < 5 || pd > 80 {
		t.Fatalf("peak power density %g mW/cm2 implausible", pd)
	}
}

func TestCurveInterpolation(t *testing.T) {
	c := KjeangCell(60)
	curve, err := c.Polarize(20, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	mid := 0.5 * curve[len(curve)-1].Current
	v, err := curve.VoltageAt(mid)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := c.VoltageAtCurrent(mid)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, v, direct.Voltage, 0.01, "interpolated voltage")
	if _, err := curve.VoltageAt(-1); err == nil {
		t.Fatal("out-of-range interpolation accepted")
	}
	if _, err := (PolarizationCurve{}).VoltageAt(0); err == nil {
		t.Fatal("empty curve accepted")
	}
}

func TestPolarizeArgs(t *testing.T) {
	c := KjeangCell(60)
	if _, err := c.Polarize(1, 0.9); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := c.Polarize(5, 1.5); err == nil {
		t.Fatal("maxFrac>1 accepted")
	}
	if _, err := c.Polarize(5, 0); err == nil {
		t.Fatal("maxFrac=0 accepted")
	}
}

func TestFVMAgreesWithCorrelation(t *testing.T) {
	// The two solver paths are independent models of the same physics;
	// DESIGN.md requires them to agree within ~10% over the operating
	// range (this is the model-consistency half of the Fig. 3
	// validation).
	for _, q := range []float64{10, 60, 300} {
		corr := KjeangCell(q)
		iL := corr.LimitingCurrent()
		fvm := KjeangCell(q)
		fvm.Path = PathFVM
		for _, frac := range []float64{0.2, 0.5, 0.8} {
			opC, err := corr.VoltageAtCurrent(frac * iL)
			if err != nil {
				t.Fatalf("corr %g/%g: %v", q, frac, err)
			}
			opF, err := fvm.VoltageAtCurrent(frac * iL)
			if err != nil {
				t.Fatalf("fvm %g/%g: %v", q, frac, err)
			}
			if d := math.Abs(opF.Voltage-opC.Voltage) / opC.Voltage; d > 0.10 {
				t.Errorf("%g uL/min frac %.1f: paths differ %.1f%% (corr %.3f, fvm %.3f)",
					q, frac, 100*d, opC.Voltage, opF.Voltage)
			}
		}
	}
}

func TestFVMPolarizeLowestFlow(t *testing.T) {
	// The FVM limit at 2.5 uL/min is below the correlation limit (local
	// downstream depletion); Polarize must adapt via effectiveLimit.
	c := KjeangCell(2.5)
	c.Path = PathFVM
	curve, err := c.Polarize(8, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !curve.IsMonotoneDecreasing() {
		t.Fatal("FVM curve not monotone")
	}
	corrLim := c.LimitingCurrent()
	fvmLim := curve[len(curve)-1].Current / 0.95
	if fvmLim > corrLim {
		t.Fatalf("FVM effective limit %g should not exceed correlation limit %g", fvmLim, corrLim)
	}
	if fvmLim < 0.5*corrLim {
		t.Fatalf("FVM effective limit %g implausibly far below correlation %g", fvmLim, corrLim)
	}
}

func TestUnknownPathRejected(t *testing.T) {
	c := KjeangCell(60)
	c.Path = SolverPath(99)
	if _, err := c.VoltageAtCurrent(1e-4); err == nil {
		t.Fatal("unknown path accepted")
	}
	if SolverPath(99).String() == "" || PathCorrelation.String() != "correlation" || PathFVM.String() != "fvm" {
		t.Fatal("SolverPath.String broken")
	}
}
