package transport

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, rel float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > rel*math.Abs(want) {
		t.Errorf("%s: got %g want %g (rel tol %g)", msg, got, want, rel)
	}
}

func TestWallShearRate(t *testing.T) {
	approx(t, WallShearRate(1.5, 150e-6), 6*1.5/150e-6, 1e-12, "gamma")
}

func TestLevequeScaling(t *testing.T) {
	d, gamma := 1.7e-10, 600.0
	// km ~ x^{-1/3}.
	k1 := KmLevequeLocal(d, gamma, 1e-3)
	k8 := KmLevequeLocal(d, gamma, 8e-3)
	approx(t, k1/k8, 2.0, 1e-9, "x^-1/3 scaling")
	// Average = 1.5 * local at L.
	approx(t, KmLevequeAvg(d, gamma, 8e-3), 1.5*k8, 1e-12, "average factor")
	// km ~ gamma^{1/3}: 8x shear doubles km.
	approx(t, KmLevequeLocal(d, 8*gamma, 1e-3)/k1, 2.0, 1e-9, "gamma^1/3 scaling")
	// km ~ D^{2/3}.
	approx(t, KmLevequeLocal(8*d, gamma, 1e-3)/k1, 4.0, 1e-9, "D^2/3 scaling")
}

func TestGraetzLimits(t *testing.T) {
	d := 1.3e-10
	dh := 2.67e-4
	// Very long electrode: fully developed Sherwood.
	kmLong := KmGraetz(d, 1e-6, dh, 1e3, 3.66)
	approx(t, kmLong, 3.66*d/dh, 0.01, "fully developed limit")
	// Short electrode: entry-dominated, increases with velocity^(1/3).
	km1 := KmGraetz(d, 0.5, dh, 0.022, 0)
	km8 := KmGraetz(d, 4.0, dh, 0.022, 0)
	approx(t, km8/km1, 2.0, 0.02, "entry-region v^1/3 scaling")
	if km1 <= kmLong {
		t.Fatal("entry region must beat fully developed")
	}
}

func TestFlowRateCubeRootLimitingCurrentShape(t *testing.T) {
	// The central Fig. 3 shape: limiting current grows ~ Q^(1/3). The
	// Leveque average km over a fixed electrode with gamma ~ Q must obey
	// km(120 Q)/km(Q) = 120^(1/3) ~ 4.93 (the 2.5 -> 300 uL/min ratio).
	d, l := 1.7e-10, 33e-3
	g1 := WallShearRate(1.39e-4, 150e-6)   // 2.5 uL/min in the Table I cell
	g120 := WallShearRate(1.67e-2, 150e-6) // 300 uL/min
	r := KmLevequeAvg(d, g120, l) / KmLevequeAvg(d, g1, l)
	approx(t, r, math.Cbrt(120), 1e-2, "Q^(1/3) limiting-current growth")
}

func TestMixingWidth(t *testing.T) {
	// w = sqrt(2 D x / v); at Table I low flow the interface broadens
	// to a significant fraction of the 1 mm stream half-width.
	w := MixingWidth(1.7e-10, 33e-3, 1.39e-4)
	if w < 1e-4 || w > 5e-4 {
		t.Fatalf("mixing width %g outside expected range", w)
	}
	// Monotone: slower flow mixes more.
	if MixingWidth(1.7e-10, 33e-3, 1.67e-2) >= w {
		t.Fatal("faster flow must mix less")
	}
	if MixingWidth(1e-10, 0, 1) != 0 {
		t.Fatal("zero length, zero width")
	}
}

func TestPeclet(t *testing.T) {
	// Table II: Pe = vL/D huge => parabolic marching valid.
	pe := 1.4 * 22e-3 / 1.26e-10
	if pe < 1e6 {
		t.Fatalf("Pe = %g unexpectedly small", pe)
	}
}

func kjeangStream(nx, ny int) *StreamProblem {
	// Table I validation-cell anode stream at 60 uL/min.
	v := 60e-9 / 60 / (2e-3 * 150e-6) // flow over area
	return &StreamProblem{
		Length:   33e-3,
		Height:   150e-6,
		Velocity: PlateProfile(v, 150e-6),
		D:        1.7e-10,
		CInlet:   920,
		NX:       nx,
		NY:       ny,
	}
}

func TestDirichletWallAgainstLeveque(t *testing.T) {
	p := kjeangStream(400, 80)
	sol, err := p.SolveDirichletWall(0)
	if err != nil {
		t.Fatal(err)
	}
	v := 60e-9 / 60 / (2e-3 * 150e-6)
	gamma := WallShearRate(v, 150e-6)
	kmCorr := KmLevequeAvg(p.D, gamma, p.Length)
	// FVM and Leveque must agree within ~15% (Leveque assumes a thin
	// boundary layer; at this Gz it is mildly optimistic).
	if math.Abs(sol.KmAvg-kmCorr)/kmCorr > 0.15 {
		t.Fatalf("FVM km %g vs Leveque %g", sol.KmAvg, kmCorr)
	}
}

func TestDirichletWallMassConservation(t *testing.T) {
	p := kjeangStream(200, 60)
	sol, err := p.SolveDirichletWall(0)
	if err != nil {
		t.Fatal(err)
	}
	deficit := p.OutletDeficit(sol.StreamSolution)
	consumed := IntegratedWallFlux(p, sol.StreamSolution)
	approx(t, consumed, deficit, 1e-6, "wall consumption equals outlet deficit")
	if consumed <= 0 {
		t.Fatal("consumption must be positive")
	}
}

func TestDirichletWallMonotoneField(t *testing.T) {
	p := kjeangStream(100, 40)
	sol, err := p.SolveDirichletWall(0)
	if err != nil {
		t.Fatal(err)
	}
	last := sol.C[len(sol.C)-1]
	// Concentration grows away from the absorbing wall.
	for j := 1; j < len(last); j++ {
		if last[j] < last[j-1]-1e-9 {
			t.Fatalf("non-monotone profile at j=%d: %g < %g", j, last[j], last[j-1])
		}
	}
	// All concentrations within [0, CInlet].
	for ix := range sol.C {
		for j := range sol.C[ix] {
			c := sol.C[ix][j]
			if c < -1e-9 || c > p.CInlet*(1+1e-9) {
				t.Fatalf("out-of-bounds concentration %g at (%d,%d)", c, ix, j)
			}
		}
	}
	// Wall flux decays downstream (boundary layer growth).
	if sol.WallFlux[len(sol.WallFlux)-1] >= sol.WallFlux[0] {
		t.Fatal("wall flux must decay downstream")
	}
}

func TestDirichletGridConvergence(t *testing.T) {
	ref, err := kjeangStream(800, 160).SolveDirichletWall(0)
	if err != nil {
		t.Fatal(err)
	}
	var prevErr = math.Inf(1)
	for _, n := range []int{50, 100, 200} {
		sol, err := kjeangStream(n*5, n).SolveDirichletWall(0)
		if err != nil {
			t.Fatal(err)
		}
		e := math.Abs(sol.KmAvg-ref.KmAvg) / ref.KmAvg
		if e > prevErr*1.05 {
			t.Fatalf("not converging: n=%d err=%g prev=%g", n, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 0.03 {
		t.Fatalf("finest error %g", prevErr)
	}
}

func TestFluxWallRecoversDirichletSolution(t *testing.T) {
	// Feed the flux profile from a Dirichlet solve back through the
	// Neumann solver: the recovered wall concentration must be ~cWall.
	p := kjeangStream(300, 80)
	dir, err := p.SolveDirichletWall(0)
	if err != nil {
		t.Fatal(err)
	}
	dx := p.Length / float64(p.NX)
	fluxAt := func(x float64) float64 {
		ix := int(x / dx)
		if ix < 0 {
			ix = 0
		}
		if ix >= p.NX {
			ix = p.NX - 1
		}
		return dir.WallFlux[ix]
	}
	neu, err := p.SolveFluxWall(fluxAt)
	if err != nil {
		t.Fatal(err)
	}
	// Compare surface concentrations away from the leading edge.
	for ix := p.NX / 4; ix < p.NX; ix += p.NX / 8 {
		if math.Abs(neu.WallConc[ix]) > 0.05*p.CInlet {
			t.Fatalf("station %d: recovered wall conc %g not ~0", ix, neu.WallConc[ix])
		}
	}
}

func TestFluxWallZeroFluxKeepsInlet(t *testing.T) {
	p := kjeangStream(50, 30)
	sol, err := p.SolveFluxWall(func(float64) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	for ix := range sol.C {
		for j := range sol.C[ix] {
			approx(t, sol.C[ix][j], p.CInlet, 1e-9, "zero flux preserves inlet")
		}
	}
}

func TestInterfaceMixingMatchesClosedForm(t *testing.T) {
	// Uniform flow step diffusion: second-moment width must match
	// sqrt(2 D L / v) while the domain wall is far away.
	v, d, l, h := 5e-3, 1.7e-10, 33e-3, 2e-3
	w, err := InterfaceMixing(l, h, v, d, 300, 400)
	if err != nil {
		t.Fatal(err)
	}
	want := MixingWidth(d, l, v)
	if math.Abs(w-want)/want > 0.1 {
		t.Fatalf("FVM width %g vs closed form %g", w, want)
	}
}

func TestValidation(t *testing.T) {
	good := kjeangStream(10, 10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.D = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero D accepted")
	}
	bad = *good
	bad.NY = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("tiny grid accepted")
	}
	bad = *good
	bad.Velocity = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil velocity accepted")
	}
	if _, err := good.SolveDirichletWall(-1); err == nil {
		t.Fatal("negative wall concentration accepted")
	}
	if _, err := good.SolveFluxWall(nil); err == nil {
		t.Fatal("nil flux accepted")
	}
}
