package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"bright/internal/obs"
	"bright/internal/pdn"
)

// TestPrefetchChainServesGridStage: a chain point's grid stage is
// bitwise the cold evaluate's (both read the process-wide response),
// and the chained reports match an un-prefetched batch over the same
// points.
func TestPrefetchChainServesGridStage(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-simulation chain in -short mode")
	}
	cfgs := make([]Config, 3)
	for k, v := range []float64{0.96, 1.00, 1.04} {
		cfgs[k] = DefaultConfig()
		cfgs[k].SupplyVoltage = v
		cfgs[k].ChipLoad = 0.5 + 0.4*float64(k)
	}
	pre := NewBatch()
	if err := pre.PrefetchChain(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	plain := NewBatch()
	for _, cfg := range cfgs {
		chained, err := pre.EvaluateContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold := coldEvaluate(t, cfg)
		if !reflect.DeepEqual(chained.Grid, cold.Grid) {
			t.Fatalf("supply %.2f load %.1f: chain grid differs from the cold grid (MinVCache %.17g vs %.17g)",
				cfg.SupplyVoltage, cfg.ChipLoad, chained.Grid.MinVCache, cold.Grid.MinVCache)
		}
		want, err := plain.EvaluateContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(chained.Grid, want.Grid) {
			t.Fatalf("supply %.2f: prefetched grid differs from the un-prefetched batch's", cfg.SupplyVoltage)
		}
		if d := math.Abs(chained.PeakTempC - want.PeakTempC); d > 1e-6 {
			t.Fatalf("supply %.2f: prefetched PeakTempC off by %g", cfg.SupplyVoltage, d)
		}
	}
}

// TestPrefetchChainDedupAndGuards pins the cheap edge cases: a
// single-point chain and a chain with duplicate operating points are
// accepted, and invalid points and a canceled context reject before the
// walk starts.
func TestPrefetchChainDedupAndGuards(t *testing.T) {
	b := NewBatch()
	if err := b.PrefetchChain(context.Background(), []Config{DefaultConfig()}); err != nil {
		t.Fatalf("single-point chain: %v", err)
	}

	// Four chain points, two distinct (SupplyVoltage, ChipLoad) pairs.
	cfgs := make([]Config, 4)
	for k := range cfgs {
		cfgs[k] = DefaultConfig()
		cfgs[k].ChipLoad = 0.5 + 0.5*float64(k%2)
	}
	if err := b.PrefetchChain(context.Background(), cfgs); err != nil {
		t.Fatalf("chain with duplicate points: %v", err)
	}

	bad := DefaultConfig()
	bad.SupplyVoltage = -1
	if err := b.PrefetchChain(context.Background(), []Config{DefaultConfig(), bad}); err == nil {
		t.Fatal("invalid chain point accepted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := NewBatch().PrefetchChain(ctx, []Config{cfgs[0], cfgs[1]}); err == nil {
		t.Fatal("canceled context accepted")
	}
}

func coldEvaluate(t *testing.T, cfg Config) *Report {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.EvaluateContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCanonicalKeyContract pins the contract CanonicalKey documents:
// cold evaluates are bitwise reproducible, and a chained answer — seeded
// from whichever neighbour ran first — matches the cold answer within
// per-output tolerances rather than bitwise.
func TestCanonicalKeyContract(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-simulations in -short mode")
	}
	nominal := DefaultConfig()
	if a, b := coldEvaluate(t, nominal), coldEvaluate(t, nominal); !reflect.DeepEqual(a, b) {
		t.Fatal("two cold evaluates of one config differ")
	}

	// walk evaluates the configs in order on one Batch, checking every
	// chained answer against a cold evaluate of the same config.
	walk := func(name string, cfgs []Config) {
		b := NewBatch()
		for _, cfg := range cfgs {
			chained, err := b.EvaluateContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold := coldEvaluate(t, cfg)
			for _, q := range []struct {
				name      string
				got, want float64
				tol       float64
			}{
				{"CellTempK", chained.CoSim.CellTempK, cold.CoSim.CellTempK, 0.05},
				{"PeakTempC", chained.PeakTempC, cold.PeakTempC, 0.05},
				{"OutletT", chained.Thermal.OutletT, cold.Thermal.OutletT, 0.05},
				{"Current", chained.CoSim.Operating.Current, cold.CoSim.Operating.Current, 1e-3 * cold.CoSim.Operating.Current},
				{"DeliveredW", chained.DeliveredW, cold.DeliveredW, 1e-3 * cold.DeliveredW},
				{"NetElectricalGainW", chained.NetElectricalGainW, cold.NetElectricalGainW, 1e-3 * math.Abs(cold.DeliveredW)},
			} {
				if d := math.Abs(q.got - q.want); d > q.tol {
					t.Errorf("%s at %.2f V, %g C: chained %s %.9g vs cold %.9g (|diff| %.3g > %.3g)",
						name, cfg.SupplyVoltage, cfg.InletTempC, q.name, q.got, q.want, d, q.tol)
				}
			}
		}
	}

	// Walk one voltage chain upward and one downward: every point but
	// the first of each walk is seeded by a different neighbour.
	voltages := []float64{0.85, 0.95, 1.05}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		cfgs := make([]Config, len(order))
		for i, k := range order {
			cfgs[i] = DefaultConfig()
			cfgs[i].SupplyVoltage = voltages[k]
		}
		walk(fmt.Sprintf("voltage walk %v", order), cfgs)
	}

	// Walk the inlet up and back at 676 ml/min: one runner serves every
	// inlet, each point seeded from its neighbour shifted by the inlet
	// change.
	var inlets []Config
	for _, c := range []float64{27, 32, 37, 32, 27} {
		cfg := DefaultConfig()
		cfg.FlowMLMin, cfg.InletTempC = 676, c
		inlets = append(inlets, cfg)
	}
	walk("inlet walk", inlets)
}

// TestEvaluateKrylovBudget: once the process grid response exists, a
// cold evaluate pays only its runner's two thermal unit-response solves
// and no CG solve at all.
func TestEvaluateKrylovBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-simulation in -short mode")
	}
	if _, err := power7Grid(); err != nil {
		t.Fatal(err)
	}
	cg := obs.Default.Counter("bright_krylov_solves_total", "", obs.L("method", "cg"))
	bicg := obs.Default.Counter("bright_krylov_solves_total", "", obs.L("method", "bicgstab"))
	c0, b0 := cg.Value(), bicg.Value()
	cfg := DefaultConfig()
	cfg.SupplyVoltage, cfg.ChipLoad = 0.8, 1.3
	coldEvaluate(t, cfg)
	if n := cg.Value() - c0; n != 0 {
		t.Errorf("cold evaluate ran %d CG solves, want 0", n)
	}
	if n := bicg.Value() - b0; n != 2 {
		t.Errorf("cold evaluate ran %d BiCGSTAB solves, want 2", n)
	}
}

// TestGridResponseConcurrentReaders: engine workers build and read the
// process-wide grid response at once; every reader must get the
// serial answer. Run under -race.
func TestGridResponseConcurrentReaders(t *testing.T) {
	const readers = 4
	sols := make([]*pdn.Solution, readers)
	var wg sync.WaitGroup
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			grid, err := power7Grid()
			if err != nil {
				t.Error(err)
				return
			}
			sols[k] = grid.Solution(1.3/0.8, 0.8)
		}(k)
	}
	wg.Wait()
	grid, err := power7Grid()
	if err != nil {
		t.Fatal(err)
	}
	want := grid.Solution(1.3/0.8, 0.8)
	for k, got := range sols {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reader %d got a different grid solution", k)
		}
	}
}
