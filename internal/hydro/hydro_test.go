package hydro

import (
	"fmt"
	"math"
	"testing"

	"bright/internal/cfd"
	"bright/internal/units"
)

var vanadium = cfd.Fluid{
	Density:             1260,
	Viscosity:           2.53e-3,
	ThermalConductivity: 0.67,
	HeatCapacityVol:     4.187e6,
}

var power7Channel = cfd.Channel{Width: 200e-6, Height: 400e-6, Length: 22e-3}

func power7Network() Network {
	return Network{
		Channel:   power7Channel,
		Fluid:     vanadium,
		NChannels: 88,
		ManifoldK: 1.5,
	}
}

func TestTableIIOperatingPoint(t *testing.T) {
	n := power7Network()
	rep, err := n.Evaluate(units.MLPerMinToM3PerS(676))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: mean velocity ~1.4 m/s (their quote; exact division of
	// 676/88 ml/min by the 200x400 um area gives 1.60 m/s).
	if rep.MeanVelocity < 1.3 || rep.MeanVelocity > 1.7 {
		t.Fatalf("mean velocity %g outside paper ballpark", rep.MeanVelocity)
	}
	// Laminar regime required for co-laminar streams.
	if rep.Reynolds > 500 {
		t.Fatalf("Re = %g not comfortably laminar", rep.Reynolds)
	}
	// Pressure gradient: textbook laminar friction for this geometry
	// gives ~0.18 bar/cm; the paper quotes 1.5 bar/cm. See
	// EXPERIMENTS.md for the documented discrepancy. Here we assert our
	// self-consistent physics.
	gradBarPerCm := units.PaToBar(rep.PressureGradient) / 100 // (bar/m) / 100 = bar/cm
	if gradBarPerCm < 0.05 || gradBarPerCm > 0.5 {
		t.Fatalf("pressure gradient %.3f bar/cm outside laminar expectation", gradBarPerCm)
	}
	// Pump power must be positive and far below the chip power (~100 W).
	if rep.PumpPower <= 0 || rep.PumpPower > 20 {
		t.Fatalf("pump power %g W implausible", rep.PumpPower)
	}
	// The flow must be able to absorb the chip heat with a small rise:
	// heat capacity rate = Q * rho*cp ~ 47 W/K.
	hcr := rep.TotalFlowRate * vanadium.HeatCapacityVol
	if hcr < 40 || hcr > 55 {
		t.Fatalf("heat capacity rate %g W/K outside expectation", hcr)
	}
}

func TestPressureDropLinearInFlow(t *testing.T) {
	d1 := ChannelPressureDrop(power7Channel, vanadium, 1e-7)
	d2 := ChannelPressureDrop(power7Channel, vanadium, 2e-7)
	if math.Abs(d2-2*d1) > 1e-9*d2 {
		t.Fatalf("laminar friction must be linear: %g vs 2*%g", d2, d1)
	}
}

func TestMinorLossQuadratic(t *testing.T) {
	l1 := MinorLoss(vanadium, 2, 1)
	l2 := MinorLoss(vanadium, 2, 2)
	if math.Abs(l2-4*l1) > 1e-12*l2 {
		t.Fatalf("minor loss must be quadratic: %g vs 4*%g", l2, l1)
	}
	if MinorLoss(vanadium, 0, 10) != 0 {
		t.Fatal("zero K must give zero loss")
	}
}

// FlowRateForPressure inverts Evaluate: the total flow rate that produces
// the given total pressure drop (Pa). In the laminar regime the friction
// term is linear in flow and the minor losses quadratic, so the inverse
// solves a quadratic equation; only the positive root is physical. It is
// the closed-form reference the tests check Evaluate against.
func (n Network) FlowRateForPressure(dp float64) (float64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	if dp <= 0 {
		return 0, fmt.Errorf("hydro: nonpositive pressure %g", dp)
	}
	// dp = a*Q + b*Q^2 with per-channel Q_c = Q/N:
	// friction: fRe*mu*L/(2 Dh^2 A) * Q_c
	// minor:    K*rho/(2 A^2) * Q_c^2
	area := n.Channel.Area()
	dh := n.Channel.HydraulicDiameter()
	nf := float64(n.NChannels)
	a := cfd.FRe(n.Channel.AspectRatio()) * n.Fluid.Viscosity * n.Channel.Length / (2 * dh * dh * area) / nf
	b := n.ManifoldK * n.Fluid.Density / (2 * area * area) / (nf * nf)
	if b == 0 {
		return dp / a, nil
	}
	// Positive root of b Q^2 + a Q - dp = 0.
	disc := a*a + 4*b*dp
	q := (-a + math.Sqrt(disc)) / (2 * b)
	return q, nil
}

func TestEvaluateInvertsFlowRateForPressure(t *testing.T) {
	n := power7Network()
	for _, q := range []float64{units.MLPerMinToM3PerS(48), units.MLPerMinToM3PerS(676)} {
		rep, err := n.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		qBack, err := n.FlowRateForPressure(rep.TotalDrop)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(qBack-q)/q > 1e-9 {
			t.Fatalf("round trip: %g -> %g", q, qBack)
		}
	}
}

func TestFlowRateForPressureNoManifold(t *testing.T) {
	n := power7Network()
	n.ManifoldK = 0
	rep, err := n.Evaluate(units.MLPerMinToM3PerS(100))
	if err != nil {
		t.Fatal(err)
	}
	q, err := n.FlowRateForPressure(rep.TotalDrop)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-rep.TotalFlowRate)/rep.TotalFlowRate > 1e-12 {
		t.Fatalf("linear inversion broken: %g vs %g", q, rep.TotalFlowRate)
	}
}

func TestPumpPowerScalesWithEfficiency(t *testing.T) {
	n := power7Network()
	n.PumpEfficiency = 1.0
	repFull, err := n.Evaluate(units.MLPerMinToM3PerS(676))
	if err != nil {
		t.Fatal(err)
	}
	n.PumpEfficiency = 0.5
	repHalf, err := n.Evaluate(units.MLPerMinToM3PerS(676))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(repHalf.PumpPower-2*repFull.PumpPower) > 1e-9*repHalf.PumpPower {
		t.Fatalf("pump power must double at half efficiency: %g vs %g",
			repHalf.PumpPower, repFull.PumpPower)
	}
}

func TestValidation(t *testing.T) {
	n := power7Network()
	n.NChannels = 0
	if _, err := n.Evaluate(1e-6); err == nil {
		t.Fatal("zero channels must error")
	}
	n = power7Network()
	if _, err := n.Evaluate(-1); err == nil {
		t.Fatal("negative flow must error")
	}
	n.ManifoldK = -1
	if err := n.Validate(); err == nil {
		t.Fatal("negative K must error")
	}
	n = power7Network()
	n.PumpEfficiency = 2
	if err := n.Validate(); err == nil {
		t.Fatal("efficiency > 1 must error")
	}
	if _, err := power7Network().FlowRateForPressure(0); err == nil {
		t.Fatal("zero pressure must error")
	}
}

func TestMoreChannelsLowerDrop(t *testing.T) {
	q := units.MLPerMinToM3PerS(676)
	n44, n176 := power7Network(), power7Network()
	n44.NChannels = 44
	n176.NChannels = 176
	r44, err := n44.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	r176, err := n176.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if r176.TotalDrop >= r44.TotalDrop {
		t.Fatalf("more parallel channels must reduce drop: %g vs %g",
			r176.TotalDrop, r44.TotalDrop)
	}
}
