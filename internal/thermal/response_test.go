package thermal

import (
	"context"
	"math"
	"reflect"
	"testing"

	"bright/internal/mesh"
	"bright/internal/units"
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
	if ses.warm {
		t.Fatal("Response warmed the session")
	}
	for _, pt := range []struct{ load, heat float64 }{{1, 0}, {0.4, 3}, {1.3, 8}, {0, 2}} {
		power := &mesh.Field2D{Grid: p.Power.Grid, Data: make([]float64, len(p.Power.Data))}
		for k, v := range p.Power.Data {
			power.Data[k] = v * pt.load
		}
		want, err := ses.SolveContext(context.Background(), power, pt.heat)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Solution(p.Stack.Channels.InletTemperature, pt.load, pt.heat)
		sum := resp.Summary(p.Stack.Channels.InletTemperature, pt.load, pt.heat)
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

// TestResponseIgnoresAssemblyInlet: the unit responses do not depend
// on the inlet temperature the session was assembled at. A response
// built at 27 C and asked at 37 C answers bitwise what a response built
// at 37 C answers, so one response serves every inlet at its flow.
func TestResponseIgnoresAssemblyInlet(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size unit-response solves in -short mode")
	}
	response := func(flow, inletC float64) *Response {
		ses, err := NewSession(Power7Problem(flow, units.CtoK(inletC), 0))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ses.Response(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	hot := units.CtoK(37)
	for _, flow := range []float64{48, 676} {
		shifted, native := response(flow, 27), response(flow, 37)
		for _, pt := range []struct{ load, heat float64 }{{1, 0}, {0.6, 2.5}} {
			if got, want := shifted.Summary(hot, pt.load, pt.heat), native.Summary(hot, pt.load, pt.heat); got != want {
				t.Errorf("%g ml/min load %g heat %g: Summary %+v from the 27 C session, %+v from the 37 C one",
					flow, pt.load, pt.heat, got, want)
			}
			if !reflect.DeepEqual(shifted.Solution(hot, pt.load, pt.heat), native.Solution(hot, pt.load, pt.heat)) {
				t.Errorf("%g ml/min load %g heat %g: Solution from the 27 C session differs from the 37 C one",
					flow, pt.load, pt.heat)
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
