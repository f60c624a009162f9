package cosim

import (
	"errors"
	"math"
	"testing"

	"bright/internal/units"
)

func nominalConfig() Config {
	return Config{TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 1.0}
}

func TestNominalCouplingGainWithinPaperBound(t *testing.T) {
	// Section III-B: at the Table II flow rate the polarization curve
	// shows at most a 4% current increase at fixed potential from the
	// chip's heat. Our coupled model must land in (0, 5%].
	g, err := CouplingGain(nominalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !g.Coupled.Converged {
		t.Fatal("co-simulation did not converge")
	}
	if g.CurrentGain <= 0 {
		t.Fatalf("coupling gain %.3f%% must be positive", 100*g.CurrentGain)
	}
	if g.CurrentGain > 0.05 {
		t.Fatalf("coupling gain %.1f%% exceeds the paper's <=4%% claim band", 100*g.CurrentGain)
	}
}

func TestLowFlowGainReproduces23Percent(t *testing.T) {
	// Section III-B: reducing the flow to 48 ml/min heats the
	// electrolyte enough to raise generated power by up to 23%.
	g, err := CouplingGain(Config{TotalFlowMLMin: 48, InletTempC: 27, TerminalVoltage: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if g.PowerGain < 0.12 || g.PowerGain > 0.32 {
		t.Fatalf("low-flow power gain %.1f%% outside the paper's ~23%% band", 100*g.PowerGain)
	}
	// The electrolyte must have warmed substantially.
	if g.Coupled.CellTempK-units.CtoK(27) < 5 {
		t.Fatalf("cell temperature rise %.2f K too small to matter",
			g.Coupled.CellTempK-units.CtoK(27))
	}
}

func TestHotInletRaisesPowerVsNominal(t *testing.T) {
	// The 37 C inlet case: more power than the nominal 27 C condition
	// at the same flow and voltage.
	hot, err := Run(Config{TotalFlowMLMin: 676, InletTempC: 37, TerminalVoltage: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := Run(nominalConfig())
	if err != nil {
		t.Fatal(err)
	}
	gain := hot.Operating.Power/nom.Operating.Power - 1
	if gain < 0.08 || gain > 0.30 {
		t.Fatalf("hot-inlet gain %.1f%% outside expected band", 100*gain)
	}
}

func TestConvergenceAndHistory(t *testing.T) {
	res, err := Run(nominalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations < 2 {
		t.Fatalf("expected a converged multi-iteration run, got %d iters", res.Iterations)
	}
	if len(res.History) != res.Iterations {
		t.Fatalf("history length %d != iterations %d", len(res.History), res.Iterations)
	}
	// Cell temperature trajectory is monotone (under-relaxed approach
	// from the cold start).
	for k := 1; k < len(res.History); k++ {
		if res.History[k].CellTempK < res.History[k-1].CellTempK-1e-9 {
			t.Fatalf("non-monotone temperature approach at iteration %d", k)
		}
	}
	// Converged temperature sits between inlet and peak chip temp.
	if res.CellTempK <= units.CtoK(27) || res.CellTempK >= res.Thermal.PeakT {
		t.Fatalf("cell temperature %.2f K outside physical bracket", res.CellTempK)
	}
}

func TestThermalStateConsistent(t *testing.T) {
	res, err := Run(nominalConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The final thermal solve already includes the array's heat:
	// peak must stay in the Fig. 9 band.
	peakC := units.KtoC(res.Thermal.PeakT)
	if peakC < 36 || peakC > 44 {
		t.Fatalf("coupled peak %.1f C outside Fig. 9 band", peakC)
	}
	// Array heat is a few watts at 1.0 V / ~6 A.
	last := res.History[len(res.History)-1]
	if last.HeatW < 2 || last.HeatW > 7 {
		t.Fatalf("array heat %.2f W implausible", last.HeatW)
	}
}

func TestIsothermalReferenceMatchesArrayModel(t *testing.T) {
	cfg := nominalConfig()
	ref, err := IsothermalReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ~6 A at 1 V (the Fig. 7 headline).
	if math.Abs(ref.Current-6.0) > 0.9 {
		t.Fatalf("isothermal reference %.2f A far from 6 A", ref.Current)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{TotalFlowMLMin: 0, InletTempC: 27, TerminalVoltage: 1},
		{TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 0},
		{TotalFlowMLMin: 676, InletTempC: 95, TerminalVoltage: 1},
		{TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 1, Relax: 1.5},
		{TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 1, ChipLoad: -1},
	}
	for k, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", k)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config", k)
		}
		if _, err := IsothermalReference(cfg); err == nil {
			t.Errorf("case %d: IsothermalReference accepted invalid config", k)
		}
	}
}

func TestReducedChipLoadReducesCoupling(t *testing.T) {
	// At idle chip load the coolant barely warms, so the coupling gain
	// shrinks towards zero.
	full, err := CouplingGain(nominalConfig())
	if err != nil {
		t.Fatal(err)
	}
	idleCfg := nominalConfig()
	idleCfg.ChipLoad = 0.1
	idle, err := CouplingGain(idleCfg)
	if err != nil {
		t.Fatal(err)
	}
	if idle.CurrentGain >= full.CurrentGain {
		t.Fatalf("idle gain %.2f%% should be below full-load gain %.2f%%",
			100*idle.CurrentGain, 100*full.CurrentGain)
	}
	if idle.CurrentGain < 0 {
		t.Fatalf("idle gain %.2f%% negative", 100*idle.CurrentGain)
	}
}

// TestMaxIterIsErrNoConvergence: exhausting the iteration budget returns
// the partial result together with an error that wraps the
// ErrNoConvergence sentinel, so the serving layer can tell a solver
// outcome from a bad request.
func TestMaxIterIsErrNoConvergence(t *testing.T) {
	cfg := nominalConfig()
	cfg.MaxIter = 1 // the nominal point needs 6
	res, err := Run(cfg)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if res == nil || res.Converged || res.Iterations != 1 {
		t.Fatalf("partial result %+v, want one unconverged iteration", res)
	}
}
