package bright_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md section 4 for the experiment index
// and EXPERIMENTS.md for the recorded paper-vs-measured values):
//
//	BenchmarkFig3Polarization        — Fig. 3 validation curves
//	BenchmarkFig7ArrayVI             — Fig. 7 array V-I characteristic
//	BenchmarkFig8VoltageMap          — Fig. 8 power-grid voltage map
//	BenchmarkFig9ThermalMap          — Fig. 9 thermal map
//	BenchmarkS1CachePower            — Sec. III-A cache-power headline
//	BenchmarkS2Hydraulics            — Sec. III-B pumping power
//	BenchmarkS3TempSensitivityNominal— Sec. III-B <=4% coupling gain
//	BenchmarkS4HotOperation          — Sec. III-B ~23% hot-operation gain
//	BenchmarkAblation*               — design-choice studies
//	BenchmarkSweepChain17            — a 17-voltage sweep chain on one core.Batch
//
// Headline quantities are attached to each benchmark via ReportMetric,
// so `go test -bench . -benchmem` prints the paper-facing numbers next
// to the timing.

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"bright"
	"bright/internal/core"
	"bright/internal/experiments"
	"bright/internal/obs"
)

func BenchmarkFig3Polarization(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig3(10)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, c := range curves {
			if c.MaxErrModel > worst {
				worst = c.MaxErrModel
			}
			if c.MaxErrFVM > worst {
				worst = c.MaxErrFVM
			}
		}
	}
	b.ReportMetric(100*worst, "worst-err-%")
}

func BenchmarkFig7ArrayVI(b *testing.B) {
	var at1V float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(25)
		if err != nil {
			b.Fatal(err)
		}
		at1V = res.CurrentAt1V
	}
	b.ReportMetric(at1V, "A@1V")
}

func BenchmarkFig8VoltageMap(b *testing.B) {
	var minV float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		minV = res.MinCacheV
	}
	b.ReportMetric(minV, "minV")
}

func BenchmarkFig9ThermalMap(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(676, 27)
		if err != nil {
			b.Fatal(err)
		}
		peak = res.PeakC
	}
	b.ReportMetric(peak, "peakC")
}

func BenchmarkS1CachePower(b *testing.B) {
	var delivered float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.S1CachePower()
		if err != nil {
			b.Fatal(err)
		}
		delivered = res.DeliveredW
	}
	b.ReportMetric(delivered, "W-delivered")
}

func BenchmarkS2Hydraulics(b *testing.B) {
	var pump float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.S2Hydraulics()
		if err != nil {
			b.Fatal(err)
		}
		pump = res.PumpPowerW
	}
	b.ReportMetric(pump, "W-pump")
}

func BenchmarkS3TempSensitivityNominal(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.S3TempSensitivityNominal()
		if err != nil {
			b.Fatal(err)
		}
		gain = res.CurrentGainPct
	}
	b.ReportMetric(gain, "gain-%")
}

func BenchmarkS4HotOperation(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.S4HotOperation()
		if err != nil {
			b.Fatal(err)
		}
		gain = res.LowFlowGainPct
	}
	b.ReportMetric(gain, "lowflow-gain-%")
}

func BenchmarkAblationSolverPath(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSolverPath()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.RelDiff > worst {
				worst = r.RelDiff
			}
		}
	}
	b.ReportMetric(100*worst, "worst-path-diff-%")
}

func BenchmarkAblationGridResolution(b *testing.B) {
	var deltaDefault float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationGridResolution()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.NX == 88 {
				deltaDefault = r.DeltaFromFinest
			}
		}
	}
	b.ReportMetric(deltaDefault, "K-from-finest")
}

func BenchmarkAblationVRMPlacement(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationVRMPlacement()
		if err != nil {
			b.Fatal(err)
		}
		spread = rows[1].WorstDropMV - rows[0].WorstDropMV
	}
	b.ReportMetric(spread, "mV-penalty-single-site")
}

func BenchmarkE1C4Baseline(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1C4Baseline()
		if err != nil {
			b.Fatal(err)
		}
		gain = res.C4.IOGainPct
	}
	b.ReportMetric(gain, "io-gain-%")
}

func BenchmarkE2DarkSilicon(b *testing.B) {
	var relit float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E2DarkSilicon()
		if err != nil {
			b.Fatal(err)
		}
		relit = float64(res.Comparison.CoresRelit)
	}
	b.ReportMetric(relit, "cores-relit")
}

func BenchmarkE3Stack3D(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E3Stack3D()
		if err != nil {
			b.Fatal(err)
		}
		penalty = res.PenaltyK
	}
	b.ReportMetric(penalty, "stack-penalty-K")
}

func BenchmarkE4Reservoir(b *testing.B) {
	var whPerL float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4Reservoir()
		if err != nil {
			b.Fatal(err)
		}
		whPerL = res.Discharge.EnergyDensityWhPerL
	}
	b.ReportMetric(whPerL, "Wh-per-L")
}

func BenchmarkE5ChannelSpread(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E5ChannelSpread()
		if err != nil {
			b.Fatal(err)
		}
		spread = res.SpreadPct
	}
	b.ReportMetric(spread, "spread-%")
}

func BenchmarkE6RoundTrip(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E6RoundTrip()
		if err != nil {
			b.Fatal(err)
		}
		eff = res.EffAtHalfLimit
	}
	b.ReportMetric(eff, "eff@half-limit")
}

func BenchmarkE7Workload(b *testing.B) {
	var swing float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E7Workload()
		if err != nil {
			b.Fatal(err)
		}
		swing = res.SwingPct
	}
	b.ReportMetric(swing, "array-swing-%")
}

func BenchmarkE8DesignSpace(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E8DesignSpace()
		if err != nil {
			b.Fatal(err)
		}
		gain = res.GainPct
	}
	b.ReportMetric(gain, "best-vs-TableII-%")
}

func BenchmarkE9Variation(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E9Variation()
		if err != nil {
			b.Fatal(err)
		}
		rel = 100 * res.StdA / res.NominalA
	}
	b.ReportMetric(rel, "array-spread-%")
}

func BenchmarkE10SeriesStack(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E10SeriesStack()
		if err != nil {
			b.Fatal(err)
		}
		worst = res.Rows[len(res.Rows)-1].ShuntLossPct
	}
	b.ReportMetric(worst, "shunt-loss-%@8s")
}

func BenchmarkE11Clogging(b *testing.B) {
	var rise float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E11Clogging()
		if err != nil {
			b.Fatal(err)
		}
		rise = res.Rows[3].PeakC - res.Rows[0].PeakC
	}
	b.ReportMetric(rise, "K-rise@8clogs")
}

func BenchmarkE12BrightSiliconFrontier(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E12BrightSiliconFrontier()
		if err != nil {
			b.Fatal(err)
		}
		gain = res.ElectrochemGainNeeded
	}
	b.ReportMetric(gain, "echem-gain-needed-x")
}

func BenchmarkE13ManyCoreSweep(b *testing.B) {
	var frontier float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E13ManyCoreSweep()
		if err != nil {
			b.Fatal(err)
		}
		frontier = res.Rows[len(res.Rows)-1].FrontierFraction
	}
	b.ReportMetric(frontier, "best-frontier-frac")
}

func BenchmarkE14ElectrodeCoverage(b *testing.B) {
	var worstFactor float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E14ElectrodeCoverage()
		if err != nil {
			b.Fatal(err)
		}
		worstFactor = res.Rows[len(res.Rows)-1].ConstrictionFactor
	}
	b.ReportMetric(worstFactor, "constriction@25%")
}

func BenchmarkE15Manifold(b *testing.B) {
	var uMaldist float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E15Manifold()
		if err != nil {
			b.Fatal(err)
		}
		uMaldist = res.Rows[1].MaldistributionPct
	}
	b.ReportMetric(uMaldist, "U-maldist-%")
}

func BenchmarkE16AirCooledBaseline(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E16AirCooledBaseline()
		if err != nil {
			b.Fatal(err)
		}
		adv = res.AdvantageK
	}
	b.ReportMetric(adv, "K-advantage")
}

func BenchmarkE17WakeupDroop(b *testing.B) {
	var droop float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E17WakeupDroop()
		if err != nil {
			b.Fatal(err)
		}
		droop = res.Rows[len(res.Rows)-1].DroopMV
	}
	b.ReportMetric(droop, "droop-mV@50nF")
}

func BenchmarkE18RefinedDesign(b *testing.B) {
	var net float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E18RefinedDesign()
		if err != nil {
			b.Fatal(err)
		}
		net = res.Refined.NetPowerW
	}
	b.ReportMetric(net, "refined-net-W")
}

func BenchmarkE19CounterFlow(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E19CounterFlow()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.CounterGradientK / res.UniGradientK
	}
	b.ReportMetric(ratio, "gradient-ratio")
}

func BenchmarkE20ThermalCap(b *testing.B) {
	var worstCap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.E20ThermalCap()
		if err != nil {
			b.Fatal(err)
		}
		worstCap = res.Rows[len(res.Rows)-1].MaxLoadFraction
	}
	b.ReportMetric(worstCap, "cap@10ml-min")
}

// BenchmarkEngineThroughput is the serving-layer baseline: evaluates/sec
// through the sim engine's queue + cache + single-flight path at 1, 4
// and NumCPU workers, cold cache (every request distinct, every request
// solves) versus warm cache (one hot config, every request hits). The
// solver is synthetic — a fixed slug of floating-point work standing in
// for a real solve — so the numbers isolate engine overhead and pool
// scaling from solver physics. Invert ns/op for evaluates/sec.
func BenchmarkEngineThroughput(b *testing.B) {
	synthetic := func(ctx context.Context, cfg core.Config) (*core.Report, error) {
		// ~the cost of a cheap solver stage, so worker scaling is visible.
		acc := 0.0
		for k := 0; k < 5000; k++ {
			acc += float64(k) * cfg.FlowMLMin
		}
		return &core.Report{Config: cfg, NetElectricalGainW: acc}, nil
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for _, workers := range workerCounts {
		for _, warm := range []bool{false, true} {
			label := fmt.Sprintf("workers=%d/cache=cold", workers)
			if warm {
				label = fmt.Sprintf("workers=%d/cache=warm", workers)
			}
			b.Run(label, func(b *testing.B) {
				e := bright.NewEngine(bright.EngineOptions{
					Workers:    workers,
					QueueDepth: 4096,
					CacheSize:  8, // cold path must keep missing
					Solver:     synthetic,
				})
				defer e.Shutdown(context.Background())
				hot := core.DefaultConfig()
				if warm {
					if _, err := e.Evaluate(context.Background(), hot); err != nil {
						b.Fatal(err)
					}
				}
				var seq atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						cfg := hot
						if !warm {
							// Distinct beyond the canonical-key tolerance:
							// every cold request is a fresh solve.
							cfg.FlowMLMin = 100 + 0.001*float64(seq.Add(1))
						}
						if _, err := e.Evaluate(context.Background(), cfg); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// BenchmarkSweepChain17 times the production sweep-chain path on the
// real operator: one core.Batch walks 17 supply voltages at the nominal
// flow and inlet, exactly as a sweep chain does. A fresh
// batch per op pays its runner's thermal unit-response solves once, so
// thermal-krylov-iters/op reports the BiCGSTAB iterations one chain
// costs.
func BenchmarkSweepChain17(b *testing.B) {
	bicg := obs.Default.Counter("bright_krylov_iterations_total", "", obs.L("method", "bicgstab"))
	cfgs := make([]core.Config, 17)
	for k := range cfgs {
		cfgs[k] = core.DefaultConfig()
		cfgs[k].SupplyVoltage = 0.8 + 0.025*float64(k)
	}
	ctx := context.Background()
	iters0 := bicg.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := core.NewBatch()
		if err := batch.PrefetchChain(ctx, cfgs); err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cfgs {
			if _, err := batch.EvaluateContext(ctx, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(bicg.Value()-iters0)/float64(b.N), "thermal-krylov-iters/op")
}

func BenchmarkAblationChannelCount(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationChannelCount()
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, r := range rows {
			if r.NetW > best {
				best = r.NetW
			}
		}
	}
	b.ReportMetric(best, "best-net-W")
}
