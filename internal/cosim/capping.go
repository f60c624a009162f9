package cosim

import (
	"context"
	"fmt"

	"bright/internal/thermal"
	"bright/internal/units"
)

// ThermalCapResult is the output of the thermal-capping governor
// (extension E20): the largest chip load fraction sustainable at a
// given coolant condition without exceeding the junction limit — the
// power-management policy a runtime would run on this hardware.
type ThermalCapResult struct {
	// FlowMLMin, InletTempC describe the coolant condition.
	FlowMLMin, InletTempC float64
	// LimitC is the junction limit used.
	LimitC float64
	// MaxLoadFraction in [0, 1]: 1 means full load fits.
	MaxLoadFraction float64
	// PeakAtCapC is the peak at the capped load (~LimitC when capped).
	PeakAtCapC float64
	// SustainedPowerW is the chip power at the cap.
	SustainedPowerW float64
}

// ThermalCap bisects the chip load fraction to the junction limit at
// the given coolant condition. Every probe reads one unit response of
// the full-load map (thermal.Response): two solves answer the whole
// bisection.
func ThermalCap(flowMLMin, inletC, limitC float64) (*ThermalCapResult, error) {
	if flowMLMin <= 0 {
		return nil, fmt.Errorf("cosim: nonpositive flow %g", flowMLMin)
	}
	if limitC <= inletC {
		return nil, fmt.Errorf("cosim: limit %g C must exceed the inlet %g C", limitC, inletC)
	}
	inletK := units.CtoK(inletC)
	ses, err := thermal.NewSession(thermal.Power7Problem(flowMLMin, inletK, 0))
	if err != nil {
		return nil, err
	}
	resp, err := ses.Response(context.TODO(), nil)
	if err != nil {
		return nil, err
	}
	peakAt := func(load float64) float64 {
		return units.KtoC(resp.Summary(inletK, load, 0).PeakT)
	}
	// The power at load L is L times the full-load map's.
	full := resp.Solution(inletK, 1, 0)
	peakFull, powerFull := units.KtoC(full.PeakT), full.TotalPower
	res := &ThermalCapResult{
		FlowMLMin: flowMLMin, InletTempC: inletC, LimitC: limitC,
	}
	if peakFull <= limitC {
		res.MaxLoadFraction = 1
		res.PeakAtCapC = peakFull
		res.SustainedPowerW = powerFull
		return res, nil
	}
	lo, hi := 0.0, 1.0
	var peakLo, powerLo float64
	for iter := 0; iter < 30 && hi-lo > 1e-3; iter++ {
		mid := 0.5 * (lo + hi)
		if peak := peakAt(mid); peak <= limitC {
			lo, peakLo, powerLo = mid, peak, mid*powerFull
		} else {
			hi = mid
		}
	}
	res.MaxLoadFraction = lo
	res.PeakAtCapC = peakLo
	res.SustainedPowerW = powerLo
	return res, nil
}
