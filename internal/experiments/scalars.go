package experiments

import (
	"context"

	"bright/internal/cosim"
	"bright/internal/floorplan"
	"bright/internal/flowcell"
	"bright/internal/hydro"
	"bright/internal/pdn"
	"bright/internal/units"
)

// S1Result quantifies the Section III-A headline: the array powers the
// L2+L3 cache rails of the POWER7+ through the on-package VRMs.
type S1Result struct {
	// ArrayCurrentA and ArrayPowerW at the 1 V rail (paper: 6 A / 6 W).
	ArrayCurrentA, ArrayPowerW float64
	// DeliveredW after VRM conversion (86% switched-capacitor).
	DeliveredW float64
	// CacheAreaCM2 and CacheDemandW/CacheDemandA from the floorplan at
	// the paper's 1 W/cm2 (the paper's own arithmetic implies ~5 cm2 of
	// cache and quotes 5 A; our explicit floorplan yields ~2.2 cm2).
	CacheAreaCM2, CacheDemandW, CacheDemandA float64
	// Powered reports DeliveredW >= CacheDemandW.
	Powered bool
}

// S1CachePower evaluates the cache-powering claim.
func S1CachePower() (*S1Result, error) {
	a := flowcell.Power7Array()
	op, err := a.CurrentAtVoltage(1.0)
	if err != nil {
		return nil, err
	}
	vrm := pdn.DefaultVRM()
	f := floorplan.Power7()
	demandW := units.WPerCM2ToWPerM2(1.0) * f.CacheArea()
	return &S1Result{
		ArrayCurrentA: op.Current,
		ArrayPowerW:   op.Power,
		DeliveredW:    op.Power * vrm.Efficiency,
		CacheAreaCM2:  f.CacheArea() / units.SquareCentimeter,
		CacheDemandW:  demandW,
		CacheDemandA:  demandW / 1.0,
		Powered:       op.Power*vrm.Efficiency >= demandW,
	}, nil
}

// S2Result compares our self-consistent hydraulics against the paper's
// quoted values (Section III-B: 1.5 bar/cm, 4.4 W pumping at 50% pump
// efficiency, ~1.4 m/s mean velocity). The paper's pressure gradient is
// not reproducible from its own Table II geometry with laminar duct
// friction; both numbers are reported.
type S2Result struct {
	Report hydro.Report
	// MeanVelocityMS (paper: 1.4 m/s).
	MeanVelocityMS float64
	// GradientBarPerCM (paper: 1.5 bar/cm).
	GradientBarPerCM float64
	// PumpPowerW (paper: 4.4 W).
	PumpPowerW float64
	// PaperGradientBarPerCM, PaperPumpPowerW are the quoted values.
	PaperGradientBarPerCM, PaperPumpPowerW float64
	// GenerationExceedsPumping is the paper's net-energy claim using
	// our numbers.
	GenerationExceedsPumping bool
}

// S2Hydraulics evaluates the pressure/pumping claims at the Table II
// operating point.
func S2Hydraulics() (*S2Result, error) {
	a := flowcell.Power7Array()
	net := a.HydraulicNetwork(1.5, hydro.PumpEfficiencyDefault)
	rep, err := net.Evaluate(a.TotalFlowRate())
	if err != nil {
		return nil, err
	}
	op, err := a.CurrentAtVoltage(1.0)
	if err != nil {
		return nil, err
	}
	return &S2Result{
		Report:                   rep,
		MeanVelocityMS:           rep.MeanVelocity,
		GradientBarPerCM:         units.PaToBar(rep.PressureGradient) / 100,
		PumpPowerW:               rep.PumpPower,
		PaperGradientBarPerCM:    1.5,
		PaperPumpPowerW:          4.4,
		GenerationExceedsPumping: op.Power > rep.PumpPower,
	}, nil
}

// S3Result is the nominal-flow temperature-coupling gain (paper: "a
// maximum 4% increase of the generated current at a fixed potential").
type S3Result struct {
	Gain *cosim.Gain
	// CurrentGainPct at the 1 V rail.
	CurrentGainPct float64
	// CellTempC is the converged electrolyte film temperature.
	CellTempC float64
}

// S3TempSensitivityNominal evaluates the nominal coupling gain.
func S3TempSensitivityNominal() (*S3Result, error) {
	g, err := cosim.CouplingGain(cosim.Config{
		TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 1.0,
	})
	if err != nil {
		return nil, err
	}
	return &S3Result{
		Gain:           g,
		CurrentGainPct: 100 * g.CurrentGain,
		CellTempC:      units.KtoC(g.Coupled.CellTempK),
	}, nil
}

// S4Result is the hot-operation study (paper: power increases by up to
// 23% at 48 ml/min flow or with a 37 C inlet).
type S4Result struct {
	// LowFlowGainPct: 48 ml/min coupled vs its isothermal reference.
	LowFlowGainPct float64
	// LowFlowCellTempC is the converged electrolyte temperature there.
	LowFlowCellTempC float64
	// HotInletGainPct: 37 C inlet coupled power vs the nominal 27 C
	// coupled power at the same flow and rail voltage.
	HotInletGainPct float64
	// PaperGainPct is the quoted value (23).
	PaperGainPct float64
}

// S4HotOperation evaluates both hot-operation readings. The 676 ml/min
// runs at 27 C and 37 C share one runner: the thermal operator and its
// unit responses depend on the flow alone, so the hot-inlet run reuses
// the nominal run's response and warm-starts from its converged state.
func S4HotOperation() (*S4Result, error) {
	low, err := cosim.CouplingGain(cosim.Config{
		TotalFlowMLMin: 48, InletTempC: 27, TerminalVoltage: 1.0,
	})
	if err != nil {
		return nil, err
	}
	r, err := cosim.NewRunner(676, 27)
	if err != nil {
		return nil, err
	}
	nom, err := r.RunContext(context.Background(), cosim.Config{
		TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 1.0,
	})
	if err != nil {
		return nil, err
	}
	hot, err := r.RunContext(context.Background(), cosim.Config{
		TotalFlowMLMin: 676, InletTempC: 37, TerminalVoltage: 1.0,
	})
	if err != nil {
		return nil, err
	}
	return &S4Result{
		LowFlowGainPct:   100 * low.PowerGain,
		LowFlowCellTempC: units.KtoC(low.Coupled.CellTempK),
		HotInletGainPct:  100 * (hot.Operating.Power/nom.Operating.Power - 1),
		PaperGainPct:     23,
	}, nil
}
