package cosim

import (
	"fmt"
	"math"

	"bright/internal/flowcell"
	"bright/internal/units"
)

// ChannelSpread quantifies the cross-array nonuniformity the equal-
// channel array model ignores (extension experiment E5): channels over
// core columns run warmer than channels over the cool L3 center, so at
// a shared terminal voltage their currents differ. The array model
// (and the paper) treats all 88 channels as identical; this analysis
// bounds the error of that assumption.
type ChannelSpread struct {
	// TempC holds each channel's film temperature (C).
	TempC []float64
	// CurrentA holds each channel's current at the terminal voltage.
	CurrentA []float64
	// MinA, MaxA, MeanA summarize the currents.
	MinA, MaxA, MeanA float64
	// SpreadPct = (MaxA - MinA) / MeanA * 100.
	SpreadPct float64
	// TotalA is the summed array current with per-channel temperatures.
	TotalA float64
	// UniformTotalA is the array current when every channel sees the
	// mean temperature (the equal-channel assumption).
	UniformTotalA float64
	// AssumptionErrPct = |TotalA - UniformTotalA| / UniformTotalA * 100.
	AssumptionErrPct float64
}

// PerChannelSpread runs the coupled thermal solution at the given
// condition and re-solves each channel's operating point at its own
// column film temperature.
func PerChannelSpread(cfg Config) (*ChannelSpread, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// One thermal solve at the coupled state.
	coupled, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	sol := coupled.Thermal
	g := sol.Grid
	// Column film temperatures: the thermal grid defaults to one cell
	// per channel pitch across the die (88 columns).
	nx := g.NX()
	spread := &ChannelSpread{MinA: math.Inf(1), MaxA: math.Inf(-1)}
	var total float64
	for i := 0; i < nx; i++ {
		var tf, tw float64
		for j := 0; j < g.NY(); j++ {
			tf += sol.FluidT.At(i, j)
			tw += sol.WallT.At(i, j)
		}
		film := 0.5 * (tf + tw) / float64(g.NY())
		// A single-channel "array" at this column's temperature.
		one := flowcell.Power7ArrayAt(cfg.TotalFlowMLMin, film)
		one.NChannels = 1
		one.Cell.StreamFlowRate = flowcell.Power7Array().Cell.StreamFlowRate
		op, err := one.CurrentAtVoltage(cfg.TerminalVoltage)
		if err != nil {
			return nil, fmt.Errorf("cosim: channel %d at %.2f K: %w", i, film, err)
		}
		spread.TempC = append(spread.TempC, units.KtoC(film))
		spread.CurrentA = append(spread.CurrentA, op.Current)
		total += op.Current
		if op.Current < spread.MinA {
			spread.MinA = op.Current
		}
		if op.Current > spread.MaxA {
			spread.MaxA = op.Current
		}
	}
	spread.TotalA = total * 88 / float64(nx) // rescale if the grid is not 88 wide
	spread.MeanA = total / float64(nx)
	spread.SpreadPct = 100 * (spread.MaxA - spread.MinA) / spread.MeanA

	// Equal-channel reference at the global mean film temperature.
	uniform := flowcell.Power7ArrayAt(cfg.TotalFlowMLMin, effectiveCellTemp(sol.MeanFluidT, sol.MeanWallT))
	opU, err := uniform.CurrentAtVoltage(cfg.TerminalVoltage)
	if err != nil {
		return nil, err
	}
	spread.UniformTotalA = opU.Current
	spread.AssumptionErrPct = 100 * math.Abs(spread.TotalA-spread.UniformTotalA) / spread.UniformTotalA
	return spread, nil
}
