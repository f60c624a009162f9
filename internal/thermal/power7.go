package thermal

import (
	"slices"
	"sync"

	"bright/internal/cfd"
	"bright/internal/floorplan"
	"bright/internal/mesh"
	"bright/internal/units"
)

// Power7ChannelSpec returns the Table II microchannel array as a thermal
// channel spec at the given total flow rate (m3/s), inlet temperature
// (K) and fluid properties.
func Power7ChannelSpec(totalFlow, inletT float64, fluid cfd.Fluid) ChannelSpec {
	return ChannelSpec{
		Channel: cfd.Channel{
			Width:  200e-6,
			Height: 400e-6,
			Length: floorplan.Power7Height, // channels span the die along the flow
		},
		Pitch:            300e-6,
		NChannels:        88,
		Fluid:            fluid,
		TotalFlowRate:    totalFlow,
		InletTemperature: inletT,
		FinEfficiency:    0.8,
	}
}

// VanadiumCoolant returns the Table II electrolyte as a cfd.Fluid.
func VanadiumCoolant() cfd.Fluid {
	return cfd.Fluid{
		Density:             1260,
		Viscosity:           2.53e-3,
		ThermalConductivity: 0.67,
		HeatCapacityVol:     4.187e6,
	}
}

// Power7Problem assembles the Fig. 9 thermal problem: the POWER7+
// full-load power map under the Table II flow-cell array at the given
// total flow (ml/min) and inlet temperature (K). extraFluidHeat carries
// the flow cells' own electrochemical losses (W); pass 0 to reproduce
// the pure heat-removal map. Each problem gets its own copy of the map,
// so a caller may edit p.Power freely.
func Power7Problem(totalMLMin, inletT, extraFluidHeat float64) *Problem {
	f := floorplan.Power7()
	spec := Power7ChannelSpec(units.MLPerMinToM3PerS(totalMLMin), inletT, VanadiumCoolant())
	p := &Problem{
		DieWidth:       f.Width,
		DieHeight:      f.Height,
		Stack:          Power7Stack(spec),
		ExtraFluidHeat: extraFluidHeat,
	}
	p.Power = &mesh.Field2D{Grid: p.Grid(), Data: slices.Clone(power7FullLoad().Data)}
	return p
}

// power7FullLoad is the full-load map on the default 88x64 grid. It
// does not depend on the flow, so it is rasterized once per process.
var power7FullLoad = sync.OnceValue(func() *mesh.Field2D {
	f := floorplan.Power7()
	p := Problem{DieWidth: f.Width, DieHeight: f.Height}
	return f.Rasterize(p.Grid(), floorplan.Power7FullLoad())
})
