package cfd

import (
	"math"
	"testing"
)

// Table I / Table II fluids from the paper.
var vanadium = Fluid{
	Density:             1260,
	Viscosity:           2.53e-3,
	ThermalConductivity: 0.67,
	HeatCapacityVol:     4.187e6,
}

// Table II channel: 200 um x 400 um x 22 mm.
var power7Channel = Channel{Width: 200e-6, Height: 400e-6, Length: 22e-3}

func approx(t *testing.T, got, want, rel float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > rel*math.Abs(want) {
		t.Errorf("%s: got %g want %g (rel tol %g)", msg, got, want, rel)
	}
}

func TestChannelGeometry(t *testing.T) {
	c := power7Channel
	approx(t, c.Area(), 8e-8, 1e-12, "area")
	approx(t, c.Perimeter(), 1.2e-3, 1e-12, "perimeter")
	approx(t, c.HydraulicDiameter(), 4*8e-8/1.2e-3, 1e-12, "Dh")
	approx(t, c.AspectRatio(), 0.5, 1e-12, "aspect")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Channel{}).Validate(); err == nil {
		t.Fatal("zero channel must be invalid")
	}
}

func TestFReLimits(t *testing.T) {
	// Shah & London tabulated values.
	approx(t, FRe(1.0), 56.91, 0.01, "square duct")
	approx(t, FRe(0.5), 62.19, 0.01, "2:1 duct")
	approx(t, FRe(0.125), 82.34, 0.01, "8:1 duct")
	if FRe(1e-6) > 96.001 || FRe(1e-6) < 95.9 {
		t.Fatalf("parallel-plate limit: %g", FRe(1e-6))
	}
}

func TestNusseltH1Limits(t *testing.T) {
	approx(t, NusseltH1(1.0), 3.608, 0.01, "square duct")
	approx(t, NusseltH1(0.5), 4.123, 0.01, "2:1 duct")
	if NusseltH1(1e-6) > 8.236 || NusseltH1(1e-6) < 8.2 {
		t.Fatalf("parallel-plate limit: %g", NusseltH1(1e-6))
	}
}

func TestAspectPanics(t *testing.T) {
	for _, f := range []func(){func() { FRe(0) }, func() { FRe(1.5) }, func() { NusseltH1(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range aspect")
				}
			}()
			f()
		}()
	}
}

func TestReynoldsLaminar(t *testing.T) {
	// Paper Sec. III-B: mean velocity ~1.4 m/s in the Table II array.
	re := Reynolds(power7Channel, vanadium, 1.4)
	// Re = 1260*1.4*2.667e-4/2.53e-3 ~ 186: safely laminar.
	approx(t, re, 186, 0.02, "Re at 1.4 m/s")
	if re > 2000 {
		t.Fatal("flow must be laminar for co-laminar operation")
	}
}

func TestMeanVelocityTableII(t *testing.T) {
	// 676 ml/min through 88 channels.
	perChannel := 676e-6 / 60 / 88 // m3/s
	v := MeanVelocity(power7Channel, perChannel)
	// Paper quotes ~1.4 m/s average.
	approx(t, v, 1.4, 0.15, "Table II mean velocity")
}

func TestExactFlowRateMatchesFReCorrelation(t *testing.T) {
	// Exact series fRe vs Shah-London polynomial, several aspects.
	for _, c := range []Channel{
		{Width: 200e-6, Height: 400e-6, Length: 1},
		{Width: 300e-6, Height: 300e-6, Length: 1},
		{Width: 2e-3, Height: 150e-6, Length: 1},
		{Width: 100e-6, Height: 800e-6, Length: 1},
	} {
		exact := ExactFReCheck(c, vanadium)
		corr := FRe(c.AspectRatio())
		if math.Abs(exact-corr)/corr > 0.01 {
			t.Errorf("aspect %.3f: exact fRe %.3f vs correlation %.3f",
				c.AspectRatio(), exact, corr)
		}
	}
}

func TestExactVelocityProfileProperties(t *testing.T) {
	c := power7Channel
	g := 1e5 // Pa/m
	// Centerline is the maximum.
	umax := ExactVelocity(c, vanadium, g, 0, 0)
	if umax <= 0 {
		t.Fatalf("centerline velocity %g", umax)
	}
	// Profile decreases towards the walls and is symmetric.
	u1 := ExactVelocity(c, vanadium, g, c.Width/4, 0)
	u2 := ExactVelocity(c, vanadium, g, -c.Width/4, 0)
	if math.Abs(u1-u2) > 1e-9*umax {
		t.Fatalf("asymmetric profile: %g vs %g", u1, u2)
	}
	if u1 >= umax {
		t.Fatal("off-center velocity must be below centerline")
	}
	// Wall value ~0.
	uw := ExactVelocity(c, vanadium, g, c.Width/2, 0)
	if math.Abs(uw) > 2e-2*umax {
		t.Fatalf("no-slip violated: u_wall = %g (umax %g)", uw, umax)
	}
}

func TestVelocityRatioLimits(t *testing.T) {
	// Square duct: u_max/u_mean ~ 2.096.
	sq := Channel{Width: 1e-3, Height: 1e-3, Length: 1}
	approx(t, WallShearMeanVelocityRatio(sq, vanadium), 2.096, 0.01, "square duct peak ratio")
	// Wide duct -> parallel plates: ratio -> 1.5.
	wide := Channel{Width: 100e-3, Height: 1e-3, Length: 1}
	approx(t, WallShearMeanVelocityRatio(wide, vanadium), 1.5, 0.02, "plate limit peak ratio")
}

func TestPressureGradientConsistency(t *testing.T) {
	// PressureGradient (correlation) vs ExactPressureGradient (series).
	v := 1.4
	q := v * power7Channel.Area()
	gCorr := PressureGradient(power7Channel, vanadium, v)
	gExact := ExactPressureGradient(power7Channel, vanadium, q)
	approx(t, gExact, gCorr, 0.01, "pressure gradient paths agree")
}

func TestEntranceLengthShort(t *testing.T) {
	// Entrance length at Table II conditions is a small fraction of the
	// channel, justifying fully developed correlations.
	l := HydrodynamicEntranceLength(power7Channel, vanadium, 1.4)
	if l > 0.25*power7Channel.Length {
		t.Fatalf("entrance length %g too large vs channel %g", l, power7Channel.Length)
	}
}

func TestHeatTransferCoefficientMagnitude(t *testing.T) {
	h := HeatTransferCoefficient(power7Channel, vanadium)
	// Nu~4.1, k=0.67, Dh=2.67e-4 => h ~ 1.0e4 W/m2K.
	if h < 5e3 || h > 3e4 {
		t.Fatalf("h = %g W/m2K outside plausible microchannel range", h)
	}
}

// HydrodynamicEntranceLength returns the developing length
// L = 0.05 Re Dh (standard laminar estimate). It backs the model's
// fully developed assumption; no production path needs the length.
func HydrodynamicEntranceLength(c Channel, f Fluid, v float64) float64 {
	return 0.05 * Reynolds(c, f, v) * c.HydraulicDiameter()
}
