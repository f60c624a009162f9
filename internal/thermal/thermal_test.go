package thermal

import (
	"math"
	"reflect"
	"testing"

	"bright/internal/floorplan"
	"bright/internal/mesh"
	"bright/internal/units"
)

func approx(t *testing.T, got, want, rel float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > rel*math.Abs(want) {
		t.Errorf("%s: got %g want %g (rel tol %g)", msg, got, want, rel)
	}
}

func TestMaterials(t *testing.T) {
	for _, m := range []Material{Silicon(), SiliconDioxide()} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := (Material{}).Validate(); err == nil {
		t.Fatal("zero material accepted")
	}
	if Silicon().Conductivity < 100 || Silicon().Conductivity > 160 {
		t.Fatal("silicon conductivity off")
	}
}

func TestChannelSpec(t *testing.T) {
	spec := Power7ChannelSpec(units.MLPerMinToM3PerS(676), 300, VanadiumCoolant())
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	approx(t, spec.FluidFraction(), 2.0/3.0, 1e-12, "fluid fraction 200/300")
	// Heat capacity rate ~47 W/K at Table II flow.
	approx(t, spec.HeatCapacityRate(), 47.2, 0.01, "m_dot cp")
	// Wall HTC ~1e4 W/m2K.
	h := spec.WallHTC()
	if h < 5e3 || h > 3e4 {
		t.Fatalf("HTC %g outside microchannel range", h)
	}
	bad := spec
	bad.Pitch = spec.Channel.Width
	if err := bad.Validate(); err == nil {
		t.Fatal("pitch <= width accepted")
	}
	bad = spec
	bad.FinEfficiency = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero fin efficiency accepted")
	}
}

func TestStackValidation(t *testing.T) {
	spec := Power7ChannelSpec(units.MLPerMinToM3PerS(676), 300, VanadiumCoolant())
	s := Power7Stack(spec)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// No heat source.
	bad := Power7Stack(spec)
	bad.Layers[0].HeatSource = false
	if err := bad.Validate(); err == nil {
		t.Fatal("stack without source accepted")
	}
	// Cavity height mismatch.
	bad = Power7Stack(spec)
	bad.Layers[2].Thickness = 1e-3
	if err := bad.Validate(); err == nil {
		t.Fatal("cavity/channel height mismatch accepted")
	}
	if err := (&Stack{}).Validate(); err == nil {
		t.Fatal("empty stack accepted")
	}
	// Multi-tier stacks are valid (paper's 3D outlook).
	s3d := Power7Stack3D(spec)
	if err := s3d.Validate(); err != nil {
		t.Fatalf("3D stack rejected: %v", err)
	}
	if s3d.NumCavities() != 2 {
		t.Fatalf("3D stack cavities = %d", s3d.NumCavities())
	}
	if Power7Stack(spec).NumCavities() != 1 {
		t.Fatal("single stack cavities != 1")
	}
}

func TestStack3DSolve(t *testing.T) {
	// Two-tier stack: both dies at full load, each cavity carrying the
	// Table II flow. Peak must exceed the single-die case (tier 0 heat
	// crosses tier 1's cavity) but stay within silicon limits, and the
	// energy balance must close over both cavities.
	spec := Power7ChannelSpec(units.MLPerMinToM3PerS(676), units.CtoK(27), VanadiumCoolant())
	f := floorplan.Power7()
	p := &Problem{
		DieWidth:  f.Width,
		DieHeight: f.Height,
		Stack:     Power7Stack3D(spec),
		NX:        44, NY: 32,
	}
	p.Power = f.Rasterize(p.Grid(), floorplan.Power7FullLoad())
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.TierActiveT) != 2 {
		t.Fatalf("expected 2 tier planes, got %d", len(sol.TierActiveT))
	}
	single := Power7Problem(676, units.CtoK(27), 0)
	single.NX, single.NY = 44, 32
	single.Power = f.Rasterize(single.Grid(), floorplan.Power7FullLoad())
	solSingle, err := Solve(single)
	if err != nil {
		t.Fatal(err)
	}
	if sol.PeakT <= solSingle.PeakT {
		t.Fatalf("stacked peak %g must exceed single-die %g", sol.PeakT, solSingle.PeakT)
	}
	if units.KtoC(sol.PeakT) > 70 {
		t.Fatalf("stacked peak %g C implausible for interlayer cooling", units.KtoC(sol.PeakT))
	}
	// Both tiers' power leaves through the two cavities.
	mc := 2 * spec.HeatCapacityRate() // two cavities at spec flow each
	carried := mc * (sol.OutletT - spec.InletTemperature)
	approx(t, carried, sol.TotalPower, 0.03, "two-cavity enthalpy balance")
	// Total power is twice the single-die map.
	approx(t, sol.TotalPower, 2*solSingle.TotalPower, 1e-9, "two tiers of sources")
}

func TestFig9PeakTemperature(t *testing.T) {
	// Paper Fig. 9: full-load POWER7+ cooled by the Table II array at
	// 676 ml/min, 27 C inlet -> 41 C peak. Our compact model lands
	// within a few degrees (38-42 C band asserted).
	p := Power7Problem(676, units.CtoK(27), 0)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	peakC := units.KtoC(sol.PeakT)
	if peakC < 36 || peakC > 44 {
		t.Fatalf("peak %g C outside the Fig. 9 band", peakC)
	}
	// Everything stays above the inlet.
	lo, _ := sol.ActiveT.MinMax()
	if lo < units.CtoK(27)-1e-6 {
		t.Fatalf("active plane below inlet: %g", units.KtoC(lo))
	}
}

func TestFig9HotspotOverCores(t *testing.T) {
	p := Power7Problem(676, units.CtoK(27), 0)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	u := floorplan.Power7().UnitAt(sol.PeakX, sol.PeakY)
	if u == nil || u.Kind != floorplan.Core {
		t.Fatalf("hotspot at (%g, %g) should be over a core, got %v", sol.PeakX, sol.PeakY, u)
	}
}

func TestEnergyConservation(t *testing.T) {
	// Steady state: all chip power (plus extra fluid heat) leaves with
	// the coolant: m_dot cp (T_out - T_in) == P_total + P_extra.
	for _, extra := range []float64{0, 4.0} {
		p := Power7Problem(676, units.CtoK(27), extra)
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		mc := p.Stack.Channels.HeatCapacityRate()
		carried := mc * (sol.OutletT - p.Stack.Channels.InletTemperature)
		approx(t, carried, sol.TotalPower+extra, 0.02, "enthalpy balance")
	}
}

func TestFluidMonotoneAlongFlow(t *testing.T) {
	// With positive heating everywhere, each channel's fluid
	// temperature must rise monotonically downstream.
	p := Power7Problem(676, units.CtoK(27), 0)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	g := sol.Grid
	for i := 0; i < g.NX(); i += 7 {
		prev := 0.0
		for j := 0; j < g.NY(); j++ {
			tf := sol.FluidT.At(i, j)
			if j > 0 && tf < prev-1e-9 {
				t.Fatalf("column %d: fluid cools downstream at j=%d (%g < %g)", i, j, tf, prev)
			}
			prev = tf
		}
	}
}

func TestWallAboveFluid(t *testing.T) {
	p := Power7Problem(676, units.CtoK(27), 0)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Heat flows die -> wall -> fluid: on average wall > fluid, and the
	// active plane is the hottest layer.
	if sol.MeanWallT <= sol.MeanFluidT {
		t.Fatalf("wall %g must exceed fluid %g", sol.MeanWallT, sol.MeanFluidT)
	}
	if sol.PeakT <= sol.MeanWallT {
		t.Fatal("active peak must exceed mean wall")
	}
}

func TestLowerFlowHotter(t *testing.T) {
	// The 48 ml/min sensitivity case (Sec. III-B) heats the fluid
	// substantially: mean fluid temperature rises by several K over the
	// nominal case — the driver of the 23% power gain.
	nominal, err := Solve(Power7Problem(676, units.CtoK(27), 0))
	if err != nil {
		t.Fatal(err)
	}
	low, err := Solve(Power7Problem(48, units.CtoK(27), 0))
	if err != nil {
		t.Fatal(err)
	}
	if low.PeakT <= nominal.PeakT {
		t.Fatal("low flow must run hotter")
	}
	dMean := low.MeanFluidT - nominal.MeanFluidT
	if dMean < 5 {
		t.Fatalf("48 ml/min should raise mean fluid T by >5 K, got %g", dMean)
	}
	// But still a viable operating point (< 85 C junction).
	if units.KtoC(low.PeakT) > 85 {
		t.Fatalf("low-flow peak %g C implausible", units.KtoC(low.PeakT))
	}
}

func TestHotterInletShiftsMap(t *testing.T) {
	// 37 C inlet (the other Sec. III-B case) shifts the whole map up by
	// ~10 K.
	cold, err := Solve(Power7Problem(676, units.CtoK(27), 0))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := Solve(Power7Problem(676, units.CtoK(37), 0))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, hot.PeakT-cold.PeakT, 10, 0.03, "inlet shift")
}

func TestExtraFluidHeatSmall(t *testing.T) {
	// The flow cells' own ~4 W of electrochemical heat barely moves the
	// map (<0.2 K) at nominal flow: the basis for decoupling the power
	// and thermal solves at the first co-simulation iteration.
	base, err := Solve(Power7Problem(676, units.CtoK(27), 0))
	if err != nil {
		t.Fatal(err)
	}
	withHeat, err := Solve(Power7Problem(676, units.CtoK(27), 4.0))
	if err != nil {
		t.Fatal(err)
	}
	d := withHeat.PeakT - base.PeakT
	if d < 0 || d > 0.3 {
		t.Fatalf("4 W of fluid heat moved the peak by %g K", d)
	}
}

func TestGridRefinementStable(t *testing.T) {
	coarse := Power7Problem(676, units.CtoK(27), 0)
	coarse.NX, coarse.NY = 44, 32
	coarse.Power = floorplan.Power7().Rasterize(coarse.Grid(), floorplan.Power7FullLoad())
	fine := Power7Problem(676, units.CtoK(27), 0)
	fine.NX, fine.NY = 132, 96
	fine.Power = floorplan.Power7().Rasterize(fine.Grid(), floorplan.Power7FullLoad())
	solC, err := Solve(coarse)
	if err != nil {
		t.Fatal(err)
	}
	solF, err := Solve(fine)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(solC.PeakT-solF.PeakT) > 1.5 {
		t.Fatalf("peak not grid-stable: coarse %g vs fine %g", solC.PeakT, solF.PeakT)
	}
}

func TestValidation(t *testing.T) {
	p := Power7Problem(676, 300, 0)
	p.Power = nil
	if _, err := Solve(p); err == nil {
		t.Fatal("nil power accepted")
	}
	p = Power7Problem(676, 300, 0)
	p.ExtraFluidHeat = -1
	if _, err := Solve(p); err == nil {
		t.Fatal("negative extra heat accepted")
	}
	p = Power7Problem(676, 300, 0)
	p.DieWidth = 0
	if _, err := Solve(p); err == nil {
		t.Fatal("zero die accepted")
	}
	// Mismatched power grid.
	p = Power7Problem(676, 300, 0)
	p.NX = 10
	p.NY = 10
	if _, err := Solve(p); err == nil {
		t.Fatal("mismatched power grid accepted")
	}
}

func TestTransientApproachesSteady(t *testing.T) {
	p := Power7Problem(676, units.CtoK(27), 0)
	p.NX, p.NY = 44, 32
	p.Power = floorplan.Power7().Rasterize(p.Grid(), floorplan.Power7FullLoad())
	steady, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// The thin liquid-cooled stack settles within tens of ms.
	tr, err := SolveTransient(p, units.CtoK(27), 5e-3, 40)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tr.Final.PeakT, steady.PeakT, 0.002, "transient settles to steady")
	// Peak temperature rises monotonically from the cold start.
	for k := 1; k < len(tr.PeakT); k++ {
		if tr.PeakT[k] < tr.PeakT[k-1]-1e-9 {
			t.Fatalf("non-monotone heating at step %d", k)
		}
	}
	// Early transient is well below steady (the model resolves the
	// thermal time constant rather than jumping to equilibrium).
	if tr.PeakT[0] > steady.PeakT-0.5 {
		t.Fatalf("first 5 ms step already at steady state (peak %g vs %g)", tr.PeakT[0], steady.PeakT)
	}
}

func TestTransientValidation(t *testing.T) {
	p := Power7Problem(676, 300, 0)
	if _, err := SolveTransient(p, 300, 0, 10); err == nil {
		t.Fatal("zero dt accepted")
	}
	if _, err := SolveTransient(p, 300, 1e-3, 0); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := SolveTransient(p, -5, 1e-3, 3); err == nil {
		t.Fatal("negative T0 accepted")
	}
}

func yGradient(sol *Solution) float64 {
	g := sol.Grid
	q := g.NY() / 4
	var first, last float64
	for j := 0; j < q; j++ {
		for i := 0; i < g.NX(); i++ {
			first += sol.ActiveT.At(i, j)
			last += sol.ActiveT.At(i, g.NY()-1-j)
		}
	}
	return (last - first) / float64(q*g.NX())
}

func TestCounterFlowEvensGradient(t *testing.T) {
	uni, err := Solve(Power7Problem(676, units.CtoK(27), 0))
	if err != nil {
		t.Fatal(err)
	}
	cf := Power7Problem(676, units.CtoK(27), 0)
	cf.Stack.Channels.CounterFlow = true
	solC, err := Solve(cf)
	if err != nil {
		t.Fatal(err)
	}
	gU, gC := yGradient(uni), yGradient(solC)
	// Uniflow warms monotonically downstream; counterflow must cut the
	// asymmetry roughly in half.
	if gU <= 0 {
		t.Fatalf("uniflow gradient %g not positive", gU)
	}
	if gC > 0.7*gU {
		t.Fatalf("counterflow gradient %.3f K should be well below uniflow %.3f K", gC, gU)
	}
	// Energy still conserved: outlet carries the chip power.
	mc := cf.Stack.Channels.HeatCapacityRate()
	carried := mc * (solC.OutletT - cf.Stack.Channels.InletTemperature)
	if math.Abs(carried-solC.TotalPower)/solC.TotalPower > 0.02 {
		t.Fatalf("counterflow enthalpy balance: %.1f W vs %.1f W", carried, solC.TotalPower)
	}
	// Peak unchanged or slightly better.
	if solC.PeakT > uni.PeakT+0.05 {
		t.Fatalf("counterflow peak %.2f worse than uniflow %.2f", solC.PeakT, uni.PeakT)
	}
}

// TestPower7ProblemOwnsItsMap: the full-load map is rasterized once per
// process, yet every problem gets its own copy, equal to a fresh
// rasterization, so editing one problem's map leaves the next intact.
func TestPower7ProblemOwnsItsMap(t *testing.T) {
	a := Power7Problem(676, 300, 0)
	f := floorplan.Power7()
	want := f.Rasterize(a.Grid(), floorplan.Power7FullLoad())
	if !reflect.DeepEqual(a.Power, want) {
		t.Fatal("memoized map differs from a fresh rasterization")
	}
	a.Power.Data[0] += 1
	a.Power.Grid.X = mesh.Axis{}
	if b := Power7Problem(48, 300, 0); !reflect.DeepEqual(b.Power, want) {
		t.Fatal("editing one problem's map changed the next problem's")
	}
}
