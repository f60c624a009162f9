package floorplan

import (
	"testing"

	"bright/internal/mesh"
)

func TestManyCoreGenerates(t *testing.T) {
	for _, tc := range []struct{ rows, cols, cores int }{
		{2, 4, 8},
		{4, 4, 16},
		{4, 8, 32},
		{8, 8, 64},
	} {
		f, err := ManyCoreWithCoreFraction(tc.rows, tc.cols, 2.0/3.0)
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.rows, tc.cols, err)
		}
		if err := f.Validate(1e-9); err != nil {
			t.Fatalf("%dx%d: %v", tc.rows, tc.cols, err)
		}
		cores := 0
		l2s := 0
		for _, u := range f.Units {
			switch u.Kind {
			case Core:
				cores++
			case L2:
				l2s++
			}
		}
		if cores != tc.cores || l2s != tc.cores {
			t.Fatalf("%dx%d: %d cores / %d L2, want %d each", tc.rows, tc.cols, cores, l2s, tc.cores)
		}
		// Same die outline as POWER7+.
		if f.Width != Power7Width || f.Height != Power7Height {
			t.Fatal("die outline changed")
		}
	}
}

func TestManyCoreRejectsBadTilings(t *testing.T) {
	if _, err := ManyCoreWithCoreFraction(0, 4, 2.0/3.0); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := ManyCoreWithCoreFraction(2, 3, 2.0/3.0); err == nil {
		t.Fatal("odd cols accepted")
	}
	if _, err := ManyCoreWithCoreFraction(64, 64, 2.0/3.0); err == nil {
		t.Fatal("absurd tiling accepted")
	}
}

func TestManyCorePowerScalesWithTiles(t *testing.T) {
	// With the same power map, more tiles at the same total core area
	// keep the core power roughly constant (the tiling conserves area).
	pm := Power7FullLoad()
	f8, err := ManyCoreWithCoreFraction(2, 4, 2.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	f64, err := ManyCoreWithCoreFraction(8, 8, 2.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	p8 := pm[Core] * f8.KindArea(Core)
	p64 := pm[Core] * f64.KindArea(Core)
	if p64 < 0.9*p8 || p64 > 1.1*p8 {
		t.Fatalf("core power changed with tiling: %g vs %g", p8, p64)
	}
}

func TestManyCoreRasterizes(t *testing.T) {
	f, err := ManyCoreWithCoreFraction(4, 4, 2.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	g := mesh.NewUniformGrid2D(f.Width, f.Height, 60, 48)
	field := f.Rasterize(g, Power7FullLoad())
	got := field.Integrate()
	want := f.TotalPower(Power7FullLoad())
	if d := got - want; d > 1e-9*want || d < -1e-9*want {
		t.Fatalf("rasterized %g vs analytic %g", got, want)
	}
}
