package floorplan

import (
	"fmt"

	"bright/internal/units"
)

// ManyCoreWithCoreFraction generates a synthetic tiled many-core
// floorplan on the POWER7+ die outline: rows x cols core tiles, each
// with coreFrac of its width as core and the rest as an L2 slice, a
// central L3 band, and logic/IO rims. The paper's conclusion argues for
// "improved architectures that minimize data motion", i.e. many
// smaller, denser-cached tiles; lower core fractions model its
// "educated compromises": smaller cores with bigger caches reduce the
// chip's power density toward full microfluidic powering.
func ManyCoreWithCoreFraction(rows, cols int, coreFrac float64) (*Floorplan, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("floorplan: invalid tiling %dx%d", rows, cols)
	}
	if coreFrac <= 0 || coreFrac >= 1 {
		return nil, fmt.Errorf("floorplan: core fraction %g out of (0,1)", coreFrac)
	}
	if rows*cols > 256 {
		return nil, fmt.Errorf("floorplan: %d tiles exceed the generator's 256 limit", rows*cols)
	}
	w, h := Power7Width, Power7Height
	rim := 1.5 * units.Millimeter  // logic rims left/right
	band := 2.0 * units.Millimeter // IO bottom, logic top
	l3 := 3.5 * units.Millimeter   // central L3 column
	f := &Floorplan{
		Name:   fmt.Sprintf("manycore-%dx%d", rows, cols),
		Width:  w,
		Height: h,
	}
	inW := w - 2*rim - l3
	inH := h - 2*band
	if inW <= 0 || inH <= 0 {
		return nil, fmt.Errorf("floorplan: die too small for rims")
	}
	f.Units = append(f.Units,
		Unit{Name: "RIM_L", Kind: Logic, Rect: Rect{0, band, rim, inH}},
		Unit{Name: "RIM_R", Kind: Logic, Rect: Rect{w - rim, band, rim, inH}},
		Unit{Name: "TOP", Kind: Logic, Rect: Rect{0, h - band, w, band}},
		Unit{Name: "IO", Kind: IO, Rect: Rect{0, 0, w, band}},
		Unit{Name: "L3C", Kind: L3, Rect: Rect{rim + inW/2, band, l3, inH}},
	)
	// Tiles split between the two halves around the L3 column.
	halfW := inW / 2
	if cols%2 != 0 {
		return nil, fmt.Errorf("floorplan: cols must be even to split around the L3 column")
	}
	tileW := halfW / float64(cols/2)
	tileH := inH / float64(rows)
	coreW := tileW * coreFrac
	tile := func(n int, x, y float64) {
		f.Units = append(f.Units,
			Unit{Name: fmt.Sprintf("CORE%d", n), Kind: Core, Rect: Rect{x, y, coreW, tileH}},
			Unit{Name: fmt.Sprintf("L2_%d", n), Kind: L2, Rect: Rect{x + coreW, y, tileW - coreW, tileH}},
		)
	}
	n := 0
	for r := 0; r < rows; r++ {
		y := band + float64(r)*tileH
		for c := 0; c < cols/2; c++ {
			tile(n, rim+float64(c)*tileW, y)
			n++
			tile(n, rim+inW/2+l3+float64(c)*tileW, y)
			n++
		}
	}
	if err := f.Validate(1e-9); err != nil {
		return nil, fmt.Errorf("floorplan: generated %s invalid: %w", f.Name, err)
	}
	return f, nil
}
