package thermal

import (
	"context"
	"math"
	"testing"

	"bright/internal/mesh"
)

// TestResponseMatchesSessionSolve: the affine combine of the two unit
// responses lands on the warm-started session's steady state for any
// (load, heat), its Summary means are Solution's bitwise, and building
// it leaves the session's warm-start field alone.
func TestResponseMatchesSessionSolve(t *testing.T) {
	p := sessionTestProblem(0)
	ses, err := NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ses.Response(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ses.Warm() {
		t.Fatal("Response warmed the session")
	}
	for _, pt := range []struct{ load, heat float64 }{{1, 0}, {0.4, 3}, {1.3, 8}, {0, 2}} {
		power := &mesh.Field2D{Grid: p.Power.Grid, Data: make([]float64, len(p.Power.Data))}
		for k, v := range p.Power.Data {
			power.Data[k] = v * pt.load
		}
		want, err := ses.Solve(power, pt.heat)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Solution(pt.load, pt.heat)
		sum := resp.Summary(pt.load, pt.heat)
		if sum.PeakT != got.PeakT || sum.MeanFluidT != got.MeanFluidT || sum.MeanWallT != got.MeanWallT {
			t.Errorf("load %g heat %g: Summary %+v disagrees with Solution", pt.load, pt.heat, sum)
		}
		for _, q := range []struct {
			name      string
			got, want float64
		}{
			{"PeakT", got.PeakT, want.PeakT},
			{"OutletT", got.OutletT, want.OutletT},
			{"MeanWallT", got.MeanWallT, want.MeanWallT},
			{"TotalPower", got.TotalPower, want.TotalPower},
		} {
			if d := math.Abs(q.got - q.want); d > 1e-6 {
				t.Errorf("load %g heat %g: %s %.9f vs %.9f direct", pt.load, pt.heat, q.name, q.got, q.want)
			}
		}
	}
}

// TestResponseHonorsCanceledContext: a canceled context stops the
// response before its first solve.
func TestResponseHonorsCanceledContext(t *testing.T) {
	ses, err := NewSession(sessionTestProblem(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ses.Response(ctx, nil); err == nil {
		t.Fatal("canceled context accepted")
	}
}
