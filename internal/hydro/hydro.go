// Package hydro computes hydraulic quantities for the microfluidic
// network: Darcy-Weisbach pressure drops in the laminar regime, manifold
// minor losses and the pumping power needed to drive the electrolytes —
// the quantities behind the paper's "1.5 bar/cm, 4.4 W pumping power"
// claims in Section III-B.
package hydro

import (
	"fmt"

	"bright/internal/cfd"
)

// PumpEfficiencyDefault is the pump efficiency assumed by the paper
// (eta_p = 50%, citing Sabry et al. DATE 2011).
const PumpEfficiencyDefault = 0.5

// ChannelPressureDrop returns the fully developed laminar pressure drop
// (Pa) across a channel carrying flowRate (m3/s), via the Darcy-Weisbach
// relation with f = fRe/Re:
//
//	dp = fRe * mu * L * v / (2 * Dh^2)
func ChannelPressureDrop(c cfd.Channel, f cfd.Fluid, flowRate float64) float64 {
	v := cfd.MeanVelocity(c, flowRate)
	return cfd.PressureGradient(c, f, v) * c.Length
}

// MinorLoss returns the pressure loss (Pa) of a fitting with loss
// coefficient K at mean velocity v: dp = K * rho * v^2 / 2.
func MinorLoss(f cfd.Fluid, k, v float64) float64 {
	return k * f.Density * v * v / 2
}

// Network describes the hydraulic path of a flow-cell array: identical
// parallel channels fed by inlet/outlet manifolds.
type Network struct {
	Channel   cfd.Channel
	Fluid     cfd.Fluid
	NChannels int
	// ManifoldK is the total minor-loss coefficient (inlet contraction +
	// bends + outlet expansion) referenced to the channel mean velocity.
	// Typical microfluidic headers: K in [1, 3].
	ManifoldK float64
	// PumpEfficiency in (0, 1]; PumpEfficiencyDefault if zero.
	PumpEfficiency float64
}

// Validate reports whether the network description is usable.
func (n Network) Validate() error {
	if err := n.Channel.Validate(); err != nil {
		return err
	}
	if err := n.Fluid.Validate(); err != nil {
		return err
	}
	if n.NChannels <= 0 {
		return fmt.Errorf("hydro: need at least one channel, got %d", n.NChannels)
	}
	if n.ManifoldK < 0 {
		return fmt.Errorf("hydro: negative manifold K %g", n.ManifoldK)
	}
	if n.PumpEfficiency < 0 || n.PumpEfficiency > 1 {
		return fmt.Errorf("hydro: pump efficiency %g out of [0,1]", n.PumpEfficiency)
	}
	return nil
}

// Report carries the derived hydraulic operating point.
type Report struct {
	TotalFlowRate      float64 // m3/s
	PerChannelFlowRate float64 // m3/s
	MeanVelocity       float64 // m/s
	Reynolds           float64
	ChannelDrop        float64 // Pa, friction only
	ManifoldDrop       float64 // Pa, minor losses
	TotalDrop          float64 // Pa
	PressureGradient   float64 // Pa/m along the channel
	PumpPower          float64 // W, dp*V/eta
}

// Evaluate computes the operating point for the given total volumetric
// flow rate (m3/s) split evenly across the parallel channels.
func (n Network) Evaluate(totalFlowRate float64) (Report, error) {
	if err := n.Validate(); err != nil {
		return Report{}, err
	}
	if totalFlowRate <= 0 {
		return Report{}, fmt.Errorf("hydro: nonpositive flow rate %g", totalFlowRate)
	}
	eta := n.PumpEfficiency
	if eta == 0 {
		eta = PumpEfficiencyDefault
	}
	per := totalFlowRate / float64(n.NChannels)
	v := cfd.MeanVelocity(n.Channel, per)
	re := cfd.Reynolds(n.Channel, n.Fluid, v)
	chDrop := ChannelPressureDrop(n.Channel, n.Fluid, per)
	manDrop := MinorLoss(n.Fluid, n.ManifoldK, v)
	total := chDrop + manDrop
	return Report{
		TotalFlowRate:      totalFlowRate,
		PerChannelFlowRate: per,
		MeanVelocity:       v,
		Reynolds:           re,
		ChannelDrop:        chDrop,
		ManifoldDrop:       manDrop,
		TotalDrop:          total,
		PressureGradient:   chDrop / n.Channel.Length,
		PumpPower:          total * totalFlowRate / eta,
	}, nil
}
