// Package thermal implements a 3D-ICE-style compact thermal model for
// liquid-cooled chips (the paper's reference [7]): the die and cap are
// discretized into a 3D resistance network, and the microchannel layer
// is modeled as solid wall cells coupled to one fluid node per cell with
// upwind advection along the flow direction and convective wall
// conductances from Nusselt correlations. Steady-state and transient
// (backward Euler) solvers are provided. This package regenerates the
// paper's Fig. 9 thermal map.
package thermal

import (
	"fmt"

	"bright/internal/cfd"
)

// Material carries bulk thermal properties.
type Material struct {
	Name string
	// Conductivity in W/(m.K), constant: the compact model is a linear
	// network evaluated at the 300 K reference.
	Conductivity float64
	// VolHeatCapacity is rho*cp in J/(m3.K) (used by the transient
	// solver).
	VolHeatCapacity float64
}

// Validate reports whether the material is physical.
func (m Material) Validate() error {
	if m.Conductivity <= 0 || m.VolHeatCapacity <= 0 {
		return fmt.Errorf("thermal: nonphysical material %+v", m)
	}
	return nil
}

// Silicon returns bulk silicon at its 300 K conductivity, 130 W/mK,
// held constant like every conductivity of the linear model. Silicon's
// ~T^-1.33 phonon roll-off would raise the Fig. 9 peak by about 0.07 K
// at 676 ml/min (0.35 K at 48 ml/min).
func Silicon() Material {
	return Material{Name: "silicon", Conductivity: 130, VolHeatCapacity: 1.63e6}
}

// SiliconDioxide returns SiO2 (BEOL approximation).
func SiliconDioxide() Material {
	return Material{Name: "SiO2", Conductivity: 1.4, VolHeatCapacity: 1.67e6}
}

// LayerKind distinguishes plain conduction layers from the microchannel
// cavity layer.
type LayerKind int

const (
	// Conduction is a homogeneous solid layer.
	Conduction LayerKind = iota
	// ChannelCavity is the etched microchannel layer: silicon walls
	// with fluid channels, homogenized per cell.
	ChannelCavity
)

// Layer is one stratum of the stack, bottom-up.
type Layer struct {
	Name      string
	Kind      LayerKind
	Thickness float64 // m
	Material  Material
	// HeatSource marks the layer receiving the chip power map (the
	// active silicon).
	HeatSource bool
}

// ChannelSpec describes the microchannel array inside the cavity layer.
type ChannelSpec struct {
	// Channel geometry; Channel.Height must equal the cavity layer
	// thickness and Channel.Length the die extent along the flow.
	Channel cfd.Channel
	// Pitch is the channel-to-channel spacing (m); Pitch - Width is
	// the wall thickness.
	Pitch float64
	// NChannels across the die.
	NChannels int
	// Fluid properties.
	Fluid cfd.Fluid
	// TotalFlowRate (m3/s) through all channels.
	TotalFlowRate float64
	// InletTemperature (K).
	InletTemperature float64
	// FinEfficiency discounts the side-wall convection area (0..1];
	// 0.8 is typical for 100 um silicon fins of 2:1 aspect channels.
	FinEfficiency float64
	// FlowWeights optionally assigns a relative flow to each solve
	// column (length = the problem's NX). Column i carries the fraction
	// w_i / sum(w) of TotalFlowRate; a zero weight models a clogged
	// channel (no advection, no convection). Nil means uniform flow.
	FlowWeights []float64
	// CounterFlow alternates the flow direction per column (odd columns
	// flow -Y): the classic counterflow layout that evens the
	// along-flow temperature gradient at the cost of dual headers.
	CounterFlow bool
}

// Validate reports whether the channel spec is usable.
func (c ChannelSpec) Validate() error {
	if err := c.Channel.Validate(); err != nil {
		return err
	}
	if err := c.Fluid.Validate(); err != nil {
		return err
	}
	if c.Pitch <= c.Channel.Width {
		return fmt.Errorf("thermal: pitch %g must exceed channel width %g", c.Pitch, c.Channel.Width)
	}
	if c.NChannels <= 0 {
		return fmt.Errorf("thermal: need channels, got %d", c.NChannels)
	}
	if c.TotalFlowRate <= 0 {
		return fmt.Errorf("thermal: nonpositive flow %g", c.TotalFlowRate)
	}
	if c.InletTemperature <= 0 {
		return fmt.Errorf("thermal: nonpositive inlet temperature %g", c.InletTemperature)
	}
	if c.FinEfficiency <= 0 || c.FinEfficiency > 1 {
		return fmt.Errorf("thermal: fin efficiency %g out of (0,1]", c.FinEfficiency)
	}
	if c.FlowWeights != nil {
		sum := 0.0
		for k, w := range c.FlowWeights {
			if w < 0 {
				return fmt.Errorf("thermal: negative flow weight at column %d", k)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("thermal: all flow weights zero")
		}
	}
	if c.Fluid.ThermalConductivity <= 0 || c.Fluid.HeatCapacityVol <= 0 {
		return fmt.Errorf("thermal: fluid needs thermal properties")
	}
	return nil
}

// FluidFraction returns the cavity fluid volume fraction.
func (c ChannelSpec) FluidFraction() float64 { return c.Channel.Width / c.Pitch }

// HeatCapacityRate returns the total m_dot*cp (W/K) of the coolant.
func (c ChannelSpec) HeatCapacityRate() float64 {
	return c.TotalFlowRate * c.Fluid.HeatCapacityVol
}

// WallHTC returns the fully developed convective coefficient (W/m2K) on
// the channel walls.
func (c ChannelSpec) WallHTC() float64 {
	return cfd.HeatTransferCoefficient(c.Channel, c.Fluid)
}

// ConvectivePerimeter returns the effective wetted perimeter per channel
// (m), with the side walls discounted by the fin efficiency.
func (c ChannelSpec) ConvectivePerimeter() float64 {
	w, h := c.Channel.Width, c.Channel.Height
	return 2*w + 2*h*c.FinEfficiency
}

// Stack is the full layer assembly.
type Stack struct {
	Layers []Layer
	// Channels describes the cavity; required when any layer is a
	// ChannelCavity.
	Channels ChannelSpec
}

// Validate checks structural consistency. Multi-tier stacks (the
// paper's 3D-stacking outlook) may carry several heat-source dies and
// several cavity layers; every cavity shares the Channels spec (each
// tier carries an identical array at the same per-cavity flow).
func (s *Stack) Validate() error {
	if len(s.Layers) == 0 {
		return fmt.Errorf("thermal: empty stack")
	}
	sources := 0
	for i, l := range s.Layers {
		if l.Thickness <= 0 {
			return fmt.Errorf("thermal: layer %d (%s) nonpositive thickness", i, l.Name)
		}
		if err := l.Material.Validate(); err != nil {
			return fmt.Errorf("layer %d (%s): %w", i, l.Name, err)
		}
		if l.HeatSource {
			sources++
		}
		if l.Kind == ChannelCavity {
			if err := s.Channels.Validate(); err != nil {
				return err
			}
			if d := l.Thickness - s.Channels.Channel.Height; d > 1e-12 || d < -1e-12 {
				return fmt.Errorf("thermal: cavity layer thickness %g != channel height %g",
					l.Thickness, s.Channels.Channel.Height)
			}
		}
	}
	if sources == 0 {
		return fmt.Errorf("thermal: need at least one heat-source layer")
	}
	return nil
}

// NumCavities returns the number of channel-cavity layers.
func (s *Stack) NumCavities() int {
	n := 0
	for _, l := range s.Layers {
		if l.Kind == ChannelCavity {
			n++
		}
	}
	return n
}

// Power7Stack builds the case-study stack: a 500 um silicon die (active
// plane at its bottom), a thin BEOL/TSV bonding layer, the 400 um etched
// channel cavity (Table II channels) and a 300 um silicon cap.
func Power7Stack(spec ChannelSpec) *Stack {
	return &Stack{
		Layers: []Layer{
			{Name: "die", Kind: Conduction, Thickness: 500e-6, Material: Silicon(), HeatSource: true},
			{Name: "bond", Kind: Conduction, Thickness: 20e-6, Material: SiliconDioxide()},
			{Name: "cavity", Kind: ChannelCavity, Thickness: spec.Channel.Height, Material: Silicon()},
			{Name: "cap", Kind: Conduction, Thickness: 300e-6, Material: Silicon()},
		},
		Channels: spec,
	}
}

// Power7Stack3D builds a two-tier 3D stack (the paper's outlook:
// "enable even denser packaging of devices via 3D stacking of ICs with
// interlayer cooling"): two POWER7+-class dies, each with its own
// interlayer channel cavity carrying the Table II array. Both dies
// receive the chip power map; each cavity carries the spec's flow.
func Power7Stack3D(spec ChannelSpec) *Stack {
	return &Stack{
		Layers: []Layer{
			{Name: "die0", Kind: Conduction, Thickness: 500e-6, Material: Silicon(), HeatSource: true},
			{Name: "bond0", Kind: Conduction, Thickness: 20e-6, Material: SiliconDioxide()},
			{Name: "cavity0", Kind: ChannelCavity, Thickness: spec.Channel.Height, Material: Silicon()},
			{Name: "bond1", Kind: Conduction, Thickness: 20e-6, Material: SiliconDioxide()},
			{Name: "die1", Kind: Conduction, Thickness: 500e-6, Material: Silicon(), HeatSource: true},
			{Name: "bond2", Kind: Conduction, Thickness: 20e-6, Material: SiliconDioxide()},
			{Name: "cavity1", Kind: ChannelCavity, Thickness: spec.Channel.Height, Material: Silicon()},
			{Name: "cap", Kind: Conduction, Thickness: 300e-6, Material: Silicon()},
		},
		Channels: spec,
	}
}
