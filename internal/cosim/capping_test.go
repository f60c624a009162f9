package cosim

import (
	"math"
	"testing"

	"bright/internal/obs"
	"bright/internal/thermal"
	"bright/internal/units"
)

func TestThermalCapFullLoadFitsAtNominal(t *testing.T) {
	res, err := ThermalCap(676, 27, 85)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLoadFraction != 1 {
		t.Fatalf("nominal condition should carry full load, got %.3f", res.MaxLoadFraction)
	}
	if res.PeakAtCapC > 45 {
		t.Fatalf("nominal peak %.1f C", res.PeakAtCapC)
	}
}

func TestThermalCapBindsAtStarvedFlow(t *testing.T) {
	cold := obs.Default.Counter("bright_thermal_session_solves_total", "", obs.L("warm", "false"))
	before := cold.Value()
	res, err := ThermalCap(20, 27, 60)
	if err != nil {
		t.Fatal(err)
	}
	// The whole bisection reads one unit response: two solves.
	if got := cold.Value() - before; got != 2 {
		t.Errorf("ThermalCap paid %d cold thermal solves, want 2", got)
	}
	if res.MaxLoadFraction >= 1 || res.MaxLoadFraction <= 0.2 {
		t.Fatalf("starved-flow cap %.3f outside expectation", res.MaxLoadFraction)
	}
	// The governor caps right at the limit.
	if math.Abs(res.PeakAtCapC-60) > 1.0 {
		t.Fatalf("capped peak %.2f C not at the 60 C limit", res.PeakAtCapC)
	}
	if res.SustainedPowerW <= 0 || res.SustainedPowerW >= 58 {
		t.Fatalf("sustained power %.1f W inconsistent with the cap", res.SustainedPowerW)
	}
}

func TestThermalCapMonotoneInFlow(t *testing.T) {
	lo, err := ThermalCap(15, 27, 60)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := ThermalCap(30, 27, 60)
	if err != nil {
		t.Fatal(err)
	}
	if hi.MaxLoadFraction <= lo.MaxLoadFraction {
		t.Fatalf("more flow must allow more load: %.3f vs %.3f",
			hi.MaxLoadFraction, lo.MaxLoadFraction)
	}
}

func TestThermalCapValidation(t *testing.T) {
	if _, err := ThermalCap(0, 27, 85); err == nil {
		t.Fatal("zero flow accepted")
	}
	if _, err := ThermalCap(676, 60, 50); err == nil {
		t.Fatal("limit below inlet accepted")
	}
}

// TestThermalCapMatchesSolve: the capped answer read off the unit
// response agrees with a cold solve of the scaled map within the
// tolerance TestSolveMatchesResponse states.
func TestThermalCapMatchesSolve(t *testing.T) {
	res, err := ThermalCap(20, 27, 60)
	if err != nil {
		t.Fatal(err)
	}
	p := thermal.Power7Problem(20, units.CtoK(27), 0)
	for k := range p.Power.Data {
		p.Power.Data[k] *= res.MaxLoadFraction
	}
	sol, err := thermal.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(units.KtoC(sol.PeakT) - res.PeakAtCapC); d > 1e-8 {
		t.Errorf("capped peak %.12f C, cold solve %.12f C (|d| %.2g K)", res.PeakAtCapC, units.KtoC(sol.PeakT), d)
	}
	if d := math.Abs(sol.TotalPower-res.SustainedPowerW) / sol.TotalPower; d > 1e-12 {
		t.Errorf("sustained power %.15g W, cold solve %.15g W", res.SustainedPowerW, sol.TotalPower)
	}
}
