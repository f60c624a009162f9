package units

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
		t.Errorf("%s: got %g want %g (tol %g)", msg, got, want, tol)
	}
}

func TestConstants(t *testing.T) {
	approx(t, GasConstant, 8.314, 1e-3, "R")
	approx(t, Faraday, 96485, 1e-4, "F")
	approx(t, StandardTemperature, 298.15, 1e-9, "T0")
	// RT/F at 25 C is the familiar 25.69 mV thermal voltage.
	approx(t, GasConstant*StandardTemperature/Faraday, 0.025693, 1e-4, "RT/F")
}

func TestTemperatureConversion(t *testing.T) {
	approx(t, CtoK(0), 273.15, 1e-12, "0C")
	approx(t, CtoK(27), 300.15, 1e-12, "27C")
	approx(t, KtoC(300), 26.85, 1e-12, "300K")
	// Paper Table II quotes the inlet as 300 K (27 C): the table rounds.
	if math.Abs(CtoK(27)-300.0) > 0.2 {
		t.Errorf("paper inlet temperature sanity check failed")
	}
}

func TestTemperatureRoundTrip(t *testing.T) {
	f := func(c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		return math.Abs(KtoC(CtoK(c))-c) < 1e-9*math.Max(1, math.Abs(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlowRateConversion(t *testing.T) {
	// 300 uL/min = 5e-9 m3/s.
	approx(t, ULPerMinToM3PerS(300), 5e-9, 1e-12, "300 uL/min")
	// 676 ml/min (Table II total flow) = 1.1267e-5 m3/s.
	approx(t, MLPerMinToM3PerS(676), 1.12667e-5, 1e-4, "676 ml/min")
	// Round trips.
	approx(t, M3PerSToMLPerMin(MLPerMinToM3PerS(48)), 48, 1e-12, "ml/min round trip")
	// 1 ml/min is 1000 uL/min.
	approx(t, MLPerMinToM3PerS(1), ULPerMinToM3PerS(1000), 1e-15, "ml vs uL")
}

func TestPressureConversion(t *testing.T) {
	approx(t, PaToBar(1e5), 1, 1e-12, "1 bar")
	approx(t, BarToPa(1.5), 1.5e5, 1e-12, "1.5 bar")
	approx(t, PaToBar(BarToPa(3.3)), 3.3, 1e-12, "bar round trip")
}

func TestCurrentDensityConversion(t *testing.T) {
	// 1 A/m2 == 0.1 mA/cm2; 50 mA/cm2 (Fig. 3 axis max) == 500 A/m2.
	approx(t, APerM2ToMAPerCM2(1), 0.1, 1e-12, "A/m2 -> mA/cm2")
	approx(t, APerM2ToMAPerCM2(500), 50, 1e-12, "A/m2 -> mA/cm2")
}

func TestLengthConversion(t *testing.T) {
	// Paper Table II: 200 um channel width, 22 mm channel length.
	approx(t, UMToM(200), 200e-6, 1e-12, "200um -> m")
	approx(t, MToUM(200e-6), 200, 1e-12, "m -> 200um")
	approx(t, MToMM(22e-3), 22, 1e-12, "m -> 22mm")

	// Quick-check round trips: the helpers must be exact inverses to
	// within floating-point roundoff over physically plausible scales.
	roundTrip := func(to, from func(float64) float64, name string) {
		f := func(v float64) bool {
			v = math.Mod(math.Abs(v), 1e6) // keep magnitudes physical
			got := from(to(v))
			return math.Abs(got-v) <= 1e-9*math.Max(1, math.Abs(v))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s round trip: %v", name, err)
		}
	}
	roundTrip(MToUM, UMToM, "m<->um")
	roundTrip(CtoK, KtoC, "C<->K")
	roundTrip(PaToBar, BarToPa, "Pa<->bar")
}

func TestPowerDensityConversion(t *testing.T) {
	// 26.7 W/cm2 (POWER7+ peak) == 2.67e5 W/m2.
	approx(t, WPerCM2ToWPerM2(26.7), 2.67e5, 1e-12, "W/cm2 -> W/m2")
	approx(t, WPerM2ToWPerCM2(WPerCM2ToWPerM2(0.77)), 0.77, 1e-12, "round trip")
}
