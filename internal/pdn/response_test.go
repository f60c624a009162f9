package pdn

import (
	"math"
	"testing"

	"bright/internal/mesh"
	"bright/internal/obs"
)

// TestResponseMatchesSessionSolve is the grid response's differential
// test: V = supply − scale·u must reproduce a direct CG solve of the
// scaled load over (supply, load), including the low-rail heavy-load
// corner, and answer every point without a Krylov solve.
func TestResponseMatchesSessionSolve(t *testing.T) {
	p, _, err := Power7Problem()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	cg := obs.Default.Counter("bright_krylov_solves_total", "", obs.L("method", "cg"))
	for _, pt := range []struct{ supply, load float64 }{
		{1.0, 1.0}, {0.8, 1.3}, {1.2, 0.3}, {0.9, 0}, {1.05, 0.75},
	} {
		// The cache load the core pipeline applies: 1 W/cm2 at the rail
		// voltage, scaled by the chip load.
		load := CacheLoad(p.Floorplan, p.LoadDensity.Grid, pt.supply)
		load = &mesh.Field2D{Grid: load.Grid, Data: append([]float64(nil), load.Data...)}
		for k := range load.Data {
			load.Data[k] *= pt.load
		}
		want, err := ses.Solve(load, pt.supply)
		if err != nil {
			t.Fatal(err)
		}
		c0 := cg.Value()
		got := resp.Solution(pt.load*resp.Supply()/pt.supply, pt.supply)
		if n := cg.Value() - c0; n != 0 {
			t.Fatalf("Solution ran %d CG solves, want 0", n)
		}
		if d := math.Abs(got.MinVCache - want.MinVCache); d > 1e-9 {
			t.Errorf("%.2f V load %.2f: MinVCache %.12f vs %.12f direct (|diff| %.2g V)",
				pt.supply, pt.load, got.MinVCache, want.MinVCache, d)
		}
		approx(t, got.TotalLoad, want.TotalLoad, 1e-12, "TotalLoad")
		approx(t, got.TotalSourceCurrent(), got.TotalLoad, 1e-6, "KCL")
		maxD := 0.0
		for i := range got.V.Data {
			maxD = math.Max(maxD, math.Abs(got.V.Data[i]-want.V.Data[i]))
		}
		if maxD > 1e-9 {
			t.Errorf("%.2f V load %.2f: field differs by %.2g V", pt.supply, pt.load, maxD)
		}
	}
}
