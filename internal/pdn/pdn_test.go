package pdn

import (
	"math"
	"testing"

	"bright/internal/floorplan"
	"bright/internal/mesh"
)

// TotalSourceCurrent sums the via-site injections (A); at DC it must
// equal TotalLoad (asserted by tests as a KCL check).
func (s *Solution) TotalSourceCurrent() float64 {
	t := 0.0
	for _, i := range s.SiteCurrents {
		t += i
	}
	return t
}

func approx(t *testing.T, got, want, rel float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > rel*math.Abs(want) {
		t.Errorf("%s: got %g want %g (rel tol %g)", msg, got, want, rel)
	}
}

func solvePower7(t *testing.T) (*Problem, *Solution) {
	t.Helper()
	p, _, err := Power7Problem()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, sol
}

func TestPower7Fig8VoltageBand(t *testing.T) {
	// Fig. 8: the voltage distribution across the cache-supplying grid
	// spans roughly 0.96-0.995 V at a 1 V supply.
	_, sol := solvePower7(t)
	if sol.MinVCache < 0.93 || sol.MinVCache > 0.99 {
		t.Fatalf("min cache voltage %.4f V outside the Fig. 8 band", sol.MinVCache)
	}
	if sol.MaxV > 1.0+1e-9 {
		t.Fatalf("node above supply: %.4f V", sol.MaxV)
	}
	if sol.MinV < 0.9 {
		t.Fatalf("grid droop %.4f V implausibly deep", sol.MinV)
	}
	// Unloaded (non-cache) regions float near the supply.
	if sol.MaxV < 0.99 {
		t.Fatalf("unloaded regions should sit near 1 V, max %.4f", sol.MaxV)
	}
}

func TestKirchhoffBalance(t *testing.T) {
	// Total via-site injection equals total sink current.
	_, sol := solvePower7(t)
	approx(t, sol.TotalSourceCurrent(), sol.TotalLoad, 1e-6, "KCL")
	if sol.TotalLoad < 1.5 || sol.TotalLoad > 3.5 {
		t.Fatalf("cache load %.2f A outside floorplan expectation", sol.TotalLoad)
	}
	for k, i := range sol.SiteCurrents {
		if i <= 0 {
			t.Fatalf("site %d injects %g A (must be positive)", k, i)
		}
	}
}

func TestWorstDropInsideCache(t *testing.T) {
	p, sol := solvePower7(t)
	u := p.Floorplan.UnitAt(sol.WorstX, sol.WorstY)
	if u == nil || !u.Kind.IsCache() {
		t.Fatalf("worst cache voltage located outside cache: %v", u)
	}
	if sol.MinVCache > sol.MaxV {
		t.Fatal("min above max")
	}
}

func TestMoreSitesLessDroop(t *testing.T) {
	// Ablation direction: a single central via site must droop more
	// than the distributed cache placement.
	p, sol := solvePower7(t)
	single := *p
	single.Sites = SingleViaSite(p.Floorplan, Power7TSVResistance)
	solSingle, err := Solve(&single)
	if err != nil {
		t.Fatal(err)
	}
	if solSingle.MinVCache >= sol.MinVCache {
		t.Fatalf("single site droop %.4f should exceed distributed %.4f",
			solSingle.MinVCache, sol.MinVCache)
	}
}

func TestLowerSheetResistanceLessDroop(t *testing.T) {
	p, sol := solvePower7(t)
	better := *p
	better.SheetResistance = Power7SheetResistance / 4
	solBetter, err := Solve(&better)
	if err != nil {
		t.Fatal(err)
	}
	if solBetter.MinVCache <= sol.MinVCache {
		t.Fatalf("lower Rs must reduce droop: %.4f vs %.4f",
			solBetter.MinVCache, sol.MinVCache)
	}
}

func TestDropScalesWithLoad(t *testing.T) {
	// Linear network: doubling the load doubles every IR drop.
	p, sol := solvePower7(t)
	heavy := *p
	heavyLoad := mesh.NewField2D(p.LoadDensity.Grid)
	copy(heavyLoad.Data, p.LoadDensity.Data)
	for k := range heavyLoad.Data {
		heavyLoad.Data[k] *= 2
	}
	heavy.LoadDensity = heavyLoad
	solHeavy, err := Solve(&heavy)
	if err != nil {
		t.Fatal(err)
	}
	drop1 := p.Supply - sol.MinVCache
	drop2 := p.Supply - solHeavy.MinVCache
	approx(t, drop2, 2*drop1, 1e-3, "linearity of IR drop")
}

func TestNoLoadNoDroop(t *testing.T) {
	p, _, err := Power7Problem()
	if err != nil {
		t.Fatal(err)
	}
	zero := mesh.NewField2D(p.LoadDensity.Grid)
	p.LoadDensity = zero
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sol.MinV, p.Supply, 1e-9, "unloaded grid floats at supply")
	approx(t, sol.MaxV, p.Supply, 1e-9, "unloaded grid floats at supply")
}

func TestVRM(t *testing.T) {
	// The case-study converter of the paper's reference [22]: 1.0 V out
	// at 86% efficiency, with a nonnegative output impedance.
	v := DefaultVRM()
	approx(t, v.Vout, 1.0, 1e-12, "VRM output")
	approx(t, v.Efficiency, 0.86, 1e-12, "VRM efficiency")
	if v.OutputResistance < 0 {
		t.Fatalf("negative VRM output resistance %g", v.OutputResistance)
	}
}

func TestProblemValidation(t *testing.T) {
	p, _, err := Power7Problem()
	if err != nil {
		t.Fatal(err)
	}
	cases := []func(*Problem){
		func(q *Problem) { q.Floorplan = nil },
		func(q *Problem) { q.SheetResistance = 0 },
		func(q *Problem) { q.Supply = -1 },
		func(q *Problem) { q.Sites = nil },
		func(q *Problem) { q.Sites = []ViaSite{{X: -1, Y: 0, Resistance: 1}} },
		func(q *Problem) { q.Sites = []ViaSite{{X: 0, Y: 0, Resistance: 0}} },
		func(q *Problem) { q.LoadDensity = nil },
	}
	for k, mutate := range cases {
		q := *p
		mutate(&q)
		if _, err := Solve(&q); err == nil {
			t.Errorf("case %d: expected error", k)
		}
	}
	// Mismatched load grid.
	q := *p
	q.LoadDensity = mesh.NewField2D(mesh.NewUniformGrid2D(1, 1, 3, 3))
	if _, err := Solve(&q); err == nil {
		t.Fatal("mismatched load grid accepted")
	}
}

func TestCacheViaSitePlacement(t *testing.T) {
	f := floorplan.Power7()
	sites := CacheViaSites(f, 1e-3)
	// 8 L2 sites + 2 L3 banks x 3 = 14.
	if len(sites) != 14 {
		t.Fatalf("expected 14 sites, got %d", len(sites))
	}
	for k, s := range sites {
		u := f.UnitAt(s.X, s.Y)
		if u == nil || !u.Kind.IsCache() {
			t.Fatalf("site %d at (%g, %g) not over cache (%v)", k, s.X, s.Y, u)
		}
	}
}
