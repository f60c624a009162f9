package thermal

import (
	"context"
	"math"
	"testing"

	"bright/internal/floorplan"
	"bright/internal/num"
	"bright/internal/units"
)

// TestAssembleReservationHolds: assemble reserves its stamp count up
// front, and stamping never outgrows it, so the triplet slices are
// allocated once. A stencil change that adds stamps without updating
// stampCount fails here instead of silently regrowing. Every stamp
// lands on its own matrix entry (the solid diagonals are summed before
// they are stamped), so the stamp count equals the nonzero count, and
// equals stampCount exactly where no clogged column drops its
// advection stamps.
func TestAssembleReservationHolds(t *testing.T) {
	f := floorplan.Power7()
	stack3D := func() *Problem {
		spec := Power7ChannelSpec(units.MLPerMinToM3PerS(676), units.CtoK(27), VanadiumCoolant())
		p := &Problem{DieWidth: f.Width, DieHeight: f.Height, Stack: Power7Stack3D(spec), NX: 44, NY: 32}
		p.Power = f.Rasterize(p.Grid(), floorplan.Power7FullLoad())
		return p
	}
	cloggedCounterflow := func() *Problem {
		p := Power7Problem(300, units.CtoK(27), 0)
		p.Stack.Channels.CounterFlow = true
		w := make([]float64, p.Grid().NX())
		for i := range w {
			w[i] = 1
		}
		w[3] = 0 // a clogged column: its advection stamps are zero
		p.Stack.Channels.FlowWeights = w
		return p
	}
	for _, tc := range []struct {
		name  string
		p     *Problem
		exact bool
	}{
		{"power7 single cavity", Power7Problem(676, units.CtoK(27), 0), true},
		{"3D stack two cavities", stack3D(), true},
		{"counterflow with a clogged column", cloggedCounterflow(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := assemble(tc.p, false)
			if err != nil {
				t.Fatal(err)
			}
			hint := stampCount(s.nx, s.ny, s.nz, len(s.cavKs))
			reserved := num.NewCOO(s.n, s.n)
			reserved.Grow(hint)
			if s.co.Cap() != reserved.Cap() {
				t.Fatalf("stamping regrew the builder: Cap %d, reserved %d", s.co.Cap(), reserved.Cap())
			}
			if s.co.NNZ() > hint {
				t.Fatalf("%d stamps outgrow the %d reserved", s.co.NNZ(), hint)
			}
			if tc.exact && s.co.NNZ() != hint {
				t.Fatalf("%d stamps, stampCount says %d", s.co.NNZ(), hint)
			}
			if nnz := len(s.co.ToCSR().Val); nnz != s.co.NNZ() {
				t.Fatalf("%d stamps merge into %d entries: duplicate stamps", s.co.NNZ(), nnz)
			}
		})
	}
}

// TestSolveMatchesResponse: the cold Solve and a session's unit
// responses both solve for the displacement from the inlet field, so at
// the Power7 operating point they agree far below the solver
// tolerance's effect on the ~10 K rise, not at the inlet baseline's
// ~300 K scale.
func TestSolveMatchesResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size solves in -short mode")
	}
	p := Power7Problem(676, units.CtoK(27), 0)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ses.Response(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Solution(p.Stack.Channels.InletTemperature, 1, 0)
	const tolK = 1e-8
	for k := range want.ActiveT.Data {
		if d := math.Abs(got.ActiveT.Data[k] - want.ActiveT.Data[k]); d > tolK {
			t.Fatalf("ActiveT cell %d: response %.12f vs Solve %.12f (|d| %.2g K)", k, got.ActiveT.Data[k], want.ActiveT.Data[k], d)
		}
	}
	for k := range want.FluidT.Data {
		if d := math.Abs(got.FluidT.Data[k] - want.FluidT.Data[k]); d > tolK {
			t.Fatalf("FluidT cell %d: response %.12f vs Solve %.12f (|d| %.2g K)", k, got.FluidT.Data[k], want.FluidT.Data[k], d)
		}
	}
	if d := math.Abs(got.PeakT - want.PeakT); d > tolK {
		t.Fatalf("PeakT: response %.12f vs Solve %.12f", got.PeakT, want.PeakT)
	}
}

// TestSessionsDropBuilder: once converted, the stamps are garbage; a
// long-lived session must not keep its COO builder reachable.
func TestSessionsDropBuilder(t *testing.T) {
	p := sessionTestProblem(0)
	ses, err := NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	if ses.s.co != nil {
		t.Fatal("Session keeps its COO builder after conversion")
	}
	ts, err := NewTransientSession(p, p.Stack.Channels.InletTemperature, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if ts.s.co != nil {
		t.Fatal("TransientSession keeps its COO builder after conversion")
	}
}
