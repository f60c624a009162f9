package flowcell

import (
	"errors"
	"math"
	"testing"
)

func halfChargedKjeang(t *testing.T) *Cell {
	t.Helper()
	c, err := KjeangCell(60).AtStateOfCharge(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAtStateOfCharge(t *testing.T) {
	c := halfChargedKjeang(t)
	// Totals preserved per side.
	if math.Abs(c.Anode.COxInlet+c.Anode.CRedInlet-1000) > 1e-9 {
		t.Fatalf("anode total changed: %g", c.Anode.COxInlet+c.Anode.CRedInlet)
	}
	if math.Abs(c.Cathode.COxInlet+c.Cathode.CRedInlet-1000) > 1e-9 {
		t.Fatalf("cathode total changed: %g", c.Cathode.COxInlet+c.Cathode.CRedInlet)
	}
	// 50% split.
	if c.Anode.CRedInlet != 500 || c.Cathode.COxInlet != 500 {
		t.Fatalf("SOC split wrong: %+v %+v", c.Anode, c.Cathode)
	}
	// At 50% SOC the Nernst terms cancel: OCV == standard OCV.
	ocv, err := c.OpenCircuitVoltage()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ocv-1.246) > 0.01 {
		t.Fatalf("50%% SOC OCV %g, want ~1.246 (standard)", ocv)
	}
	// Bounds.
	if _, err := c.AtStateOfCharge(0); err == nil {
		t.Fatal("SOC 0 accepted")
	}
	if _, err := c.AtStateOfCharge(1); err == nil {
		t.Fatal("SOC 1 accepted")
	}
}

func TestChargeAboveOCVDischargeBelow(t *testing.T) {
	c := halfChargedKjeang(t)
	i := 0.3 * c.LimitingCurrent()
	dis, err := c.VoltageAtCurrent(i)
	if err != nil {
		t.Fatal(err)
	}
	chg, err := c.ChargeAtCurrent(i)
	if err != nil {
		t.Fatal(err)
	}
	if !(dis.Voltage < dis.OpenCircuit && chg.Voltage > chg.OpenCircuit) {
		t.Fatalf("ordering violated: dis %.3f, OCV %.3f, chg %.3f",
			dis.Voltage, dis.OpenCircuit, chg.Voltage)
	}
	if !chg.Charging || dis.Charging {
		t.Fatal("Charging flag wrong")
	}
	// Loss budget closes on the charge side too.
	sum := chg.OpenCircuit + chg.CathodeLoss + chg.AnodeLoss + chg.OhmicLoss
	if math.Abs(chg.Voltage-sum) > 1e-9 {
		t.Fatalf("charge loss budget: %g vs %g", chg.Voltage, sum)
	}
}

func TestChargeVoltageMonotone(t *testing.T) {
	c := halfChargedKjeang(t)
	iLim := c.ChargingLimitingCurrent()
	prev := 0.0
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		op, err := c.ChargeAtCurrent(frac * iLim)
		if err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		if op.Voltage <= prev {
			t.Fatalf("charge voltage not increasing at frac %g", frac)
		}
		prev = op.Voltage
	}
}

func TestChargeBeyondLimit(t *testing.T) {
	c := halfChargedKjeang(t)
	if _, err := c.ChargeAtCurrent(1.01 * c.ChargingLimitingCurrent()); !errors.Is(err, ErrBeyondLimit) {
		t.Fatalf("expected ErrBeyondLimit, got %v", err)
	}
	if _, err := c.ChargeAtCurrent(-1); err == nil {
		t.Fatal("negative magnitude accepted")
	}
}

func TestFullyChargedCellHasNoHeadroom(t *testing.T) {
	// Table II state (2000:1) has essentially no charging headroom:
	// the charging limit is ~1/2000 of the discharge limit.
	c := Power7Array().Cell
	if r := c.ChargingLimitingCurrent() / c.LimitingCurrent(); r > 0.01 {
		t.Fatalf("charged cell headroom ratio %g unexpectedly large", r)
	}
}

func TestRoundTripEfficiency(t *testing.T) {
	pts, err := KjeangCell(60).RoundTripEfficiency(0.5, 8, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("points %d", len(pts))
	}
	prev := 1.0
	for _, p := range pts {
		if p.Efficiency <= 0 || p.Efficiency >= 1 {
			t.Fatalf("efficiency %g out of (0,1)", p.Efficiency)
		}
		if p.Efficiency >= prev {
			t.Fatalf("efficiency must fall with current: %g after %g", p.Efficiency, prev)
		}
		if p.ChargeVoltage <= p.DischargeVoltage {
			t.Fatal("charge voltage must exceed discharge voltage")
		}
		prev = p.Efficiency
	}
	// Small-current efficiency approaches 1; deep currents cost real
	// voltage.
	if pts[0].Efficiency < 0.85 {
		t.Fatalf("low-current efficiency %g too low", pts[0].Efficiency)
	}
	if pts[len(pts)-1].Efficiency > 0.85 {
		t.Fatalf("near-limit efficiency %g too high", pts[len(pts)-1].Efficiency)
	}
	// Argument validation.
	if _, err := KjeangCell(60).RoundTripEfficiency(0.5, 1, 0.8); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := KjeangCell(60).RoundTripEfficiency(0.5, 4, 1.5); err == nil {
		t.Fatal("maxFrac>1 accepted")
	}
	if _, err := KjeangCell(60).RoundTripEfficiency(2, 4, 0.5); err == nil {
		t.Fatal("bad SOC accepted")
	}
}

func TestChargeFVMPathAgrees(t *testing.T) {
	corr := halfChargedKjeang(t)
	fvm := halfChargedKjeang(t)
	fvm.Path = PathFVM
	i := 0.4 * corr.ChargingLimitingCurrent()
	opC, err := corr.ChargeAtCurrent(i)
	if err != nil {
		t.Fatal(err)
	}
	opF, err := fvm.ChargeAtCurrent(i)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(opF.Voltage-opC.Voltage) / opC.Voltage; d > 0.05 {
		t.Fatalf("charge paths disagree %.1f%%: %g vs %g", 100*d, opC.Voltage, opF.Voltage)
	}
}
