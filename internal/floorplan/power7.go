package floorplan

import "bright/internal/units"

// POWER7+ die dimensions from the paper (Fig. 4).
const (
	Power7Width  = 26.55 * units.Millimeter
	Power7Height = 21.34 * units.Millimeter
)

// Power7 builds the IBM POWER7+ floorplan used in the case study: a
// symmetric layout with four core/L2 quadrant groups at the die corners,
// two central L3 banks, memory-controller logic strips at the left and
// right edges, an SMP-link logic band at the top and an I/O band at the
// bottom — the arrangement visible in the paper's Fig. 4/Fig. 8. All
// coordinates are exact tilings (Validate passes with zero gaps).
func Power7() *Floorplan {
	mm := units.Millimeter
	// Column edges (x, mm).
	const (
		x0 = 0.0
		x1 = 1.8    // logic-left | cores-left
		x2 = 6.8    // cores-left | L2-left
		x3 = 9.4    // L2-left | L3-left
		x4 = 13.275 // die centerline
		x5 = 17.15  // L3-right | L2-right
		x6 = 19.75  // L2-right | cores-right
		x7 = 24.75  // cores-right | logic-right
		x8 = 26.55
	)
	// Row edges (y, mm).
	const (
		y0 = 0.0
		y1 = 2.17  // I/O band | lower blocks
		y2 = 6.42  // lower core row split
		y3 = 10.67 // lower | upper blocks
		y4 = 14.92 // upper core row split
		y5 = 19.17 // upper blocks | top logic band
		y6 = 21.34
	)
	r := func(xa, ya, xb, yb float64) Rect {
		return Rect{X: xa * mm, Y: ya * mm, W: (xb - xa) * mm, H: (yb - ya) * mm}
	}
	f := &Floorplan{
		Name:   "IBM POWER7+",
		Width:  Power7Width,
		Height: Power7Height,
		Units: []Unit{
			// Edge logic strips and bands.
			{Name: "MC0", Kind: Logic, Rect: r(x0, y1, x1, y5)},
			{Name: "MC1", Kind: Logic, Rect: r(x7, y1, x8, y5)},
			{Name: "SMP", Kind: Logic, Rect: r(x0, y5, x8, y6)},
			{Name: "IO0", Kind: IO, Rect: r(x0, y0, x8, y1)},

			// Eight cores: two stacked per quadrant column.
			{Name: "CORE0", Kind: Core, Rect: r(x1, y1, x2, y2)},
			{Name: "CORE1", Kind: Core, Rect: r(x1, y2, x2, y3)},
			{Name: "CORE2", Kind: Core, Rect: r(x1, y3, x2, y4)},
			{Name: "CORE3", Kind: Core, Rect: r(x1, y4, x2, y5)},
			{Name: "CORE4", Kind: Core, Rect: r(x6, y1, x7, y2)},
			{Name: "CORE5", Kind: Core, Rect: r(x6, y2, x7, y3)},
			{Name: "CORE6", Kind: Core, Rect: r(x6, y3, x7, y4)},
			{Name: "CORE7", Kind: Core, Rect: r(x6, y4, x7, y5)},

			// Eight L2 slices alongside their cores.
			{Name: "L2_0", Kind: L2, Rect: r(x2, y1, x3, y2)},
			{Name: "L2_1", Kind: L2, Rect: r(x2, y2, x3, y3)},
			{Name: "L2_2", Kind: L2, Rect: r(x2, y3, x3, y4)},
			{Name: "L2_3", Kind: L2, Rect: r(x2, y4, x3, y5)},
			{Name: "L2_4", Kind: L2, Rect: r(x5, y1, x6, y2)},
			{Name: "L2_5", Kind: L2, Rect: r(x5, y2, x6, y3)},
			{Name: "L2_6", Kind: L2, Rect: r(x5, y3, x6, y4)},
			{Name: "L2_7", Kind: L2, Rect: r(x5, y4, x6, y5)},

			// Two central eDRAM L3 banks.
			{Name: "L3_0", Kind: L3, Rect: r(x3, y1, x4, y5)},
			{Name: "L3_1", Kind: L3, Rect: r(x4, y1, x5, y5)},
		},
	}
	return f
}

// Power7PeakDensity is the chip's peak power density (W/m2): 26.7 W/cm2
// on the cores, from the paper.
var Power7PeakDensity = units.WPerCM2ToWPerM2(26.7)

// Power7FullLoad returns the full-load power map used for the Fig. 9
// thermal experiment: cores at the quoted 26.7 W/cm2 peak, caches at the
// quoted 1 W/cm2 average, uncore logic and I/O at representative
// server-class densities.
func Power7FullLoad() PowerMap {
	return PowerMap{
		Core:  Power7PeakDensity,
		L2:    units.WPerCM2ToWPerM2(1.0),
		L3:    units.WPerCM2ToWPerM2(1.0),
		Logic: units.WPerCM2ToWPerM2(8.0),
		IO:    units.WPerCM2ToWPerM2(3.0),
	}
}
