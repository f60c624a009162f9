package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"bright/internal/core"
	"bright/internal/cosim"
	"bright/internal/floorplan"
	"bright/internal/flowcell"
	"bright/internal/mesh"
	"bright/internal/obs"
	"bright/internal/pdn"
	"bright/internal/sim"
	"bright/internal/stream"
	"bright/internal/thermal"
	"bright/internal/units"
	"bright/internal/workload"
)

// layerMetric is one per-layer metric of the traced run, with the
// prediction it carries: the end-to-end metric and workload a change
// to the layer should move, and the workloads where it should leave
// the end-to-end figures flat. BENCHMARK.json lists the same names and
// units (TestBenchmarkJSONMatchesLayerTable).
type layerMetric struct {
	Name, Unit, Better string
	Moves, Flat        string
}

// Counts marked "per unit" are divided by the workload's work units
// (requests, sweep points or frames) over the measured window.
var layerTable = []layerMetric{
	{"cosim.setup_ms", "ms", "lower", "evaluate-cold p50 and alloc_mb_per_op; sweep-chained once per segment", "evaluate-hot, twin-stream"},
	{"cosim.setup_alloc_mb", "MB", "lower", "evaluate-cold p50 and alloc_mb_per_op; sweep-chained once per segment", "evaluate-hot, twin-stream"},
	{"pdn.setup_ms", "ms", "lower", "evaluate-cold p50 and alloc_mb_per_op", "evaluate-hot, twin-stream"},
	{"pdn.setup_alloc_mb", "MB", "lower", "evaluate-cold p50 and alloc_mb_per_op", "evaluate-hot, twin-stream"},
	{"cosim.run_ms", "ms", "lower", "evaluate-cold p50; sweep-chained throughput_per_s", "evaluate-hot"},
	{"cosim.iterations", "count", "lower", "evaluate-cold p50; sweep-chained throughput_per_s", "evaluate-hot"},
	{"cosim.maxiter_share", "ratio", "lower", "evaluate-cold p50; sweep-chained throughput_per_s", "evaluate-hot"},
	{"thermal.solve_ms", "ms", "lower", "evaluate-cold, sweep-chained", "evaluate-hot"},
	{"thermal.krylov_iters", "count", "lower", "evaluate-cold, sweep-chained", "evaluate-hot"},
	{"thermal.warm_solve_ratio", "ratio", "higher", "evaluate-cold, sweep-chained", "evaluate-hot"},
	{"flowcell.solve_ms", "ms", "lower", "evaluate-cold (about 0 share)", "sweep-chained, evaluate-hot, twin-stream"},
	{"pdn.solve_ms", "ms", "lower", "sweep-chained throughput_per_s", "evaluate-hot"},
	{"pdn.batch_ms", "ms", "lower", "sweep-chained throughput_per_s", "evaluate-hot"},
	{"core.prefetch_ms", "ms", "lower", "sweep-chained throughput_per_s", "evaluate-hot"},
	{"hydro.evaluate_ms", "ms", "lower", "none expected", "all"},
	{"core.evaluate_ms", "ms", "lower", "evaluate-cold, sweep-chained", "evaluate-hot"},
	{"core.evaluate_alloc_mb", "MB", "lower", "evaluate-cold, sweep-chained", "evaluate-hot"},
	{"num.krylov_iterations", "count", "lower", "evaluate-cold, sweep-chained (per unit)", "evaluate-hot"},
	{"num.krylov_solves", "count", "lower", "evaluate-cold, sweep-chained (per unit)", "evaluate-hot"},
	{"num.krylov_maxiter", "count", "lower", "evaluate-cold, sweep-chained (per unit)", "evaluate-hot"},
	{"num.mg_cycles", "count", "lower", "evaluate-cold, sweep-chained (per unit)", "evaluate-hot"},
	{"num.mg_setups", "count", "lower", "evaluate-cold, sweep-chained (per unit)", "evaluate-hot"},
	{"num.spmv_rows", "count", "lower", "evaluate-cold, sweep-chained (per unit)", "evaluate-hot"},
	{"num.blockcg_rhs", "count", "higher", "sweep-chained (per unit)", "evaluate-hot"},
	{"num.sparse_conversions", "count", "lower", "evaluate-cold, sweep-chained (per unit)", "evaluate-hot"},
	{"sim.handler_self_ms", "ms", "lower", "evaluate-hot p50 and tail", "evaluate-cold (share below 0.1%)"},
	{"sim.wait_ms", "ms", "lower", "evaluate-hot p50 and tail", "evaluate-cold (share below 0.1%)"},
	{"sim.cache_hit_ratio", "ratio", "higher", "evaluate-hot p50 and tail", "evaluate-cold"},
	{"sim.solves", "count", "lower", "evaluate-hot p50 and tail (per unit)", "evaluate-cold"},
	{"sim.sweep_warm_ratio", "ratio", "higher", "sweep-chained latency and throughput", "evaluate-cold"},
	{"sim.sweep_segments", "count", "lower", "sweep-chained latency and throughput (per operation)", "evaluate-cold"},
	{"sim.sweep_steals", "count", "higher", "sweep-chained latency and throughput (per operation)", "evaluate-cold"},
	{"cluster.hop_ms", "ms", "lower", "evaluate-hot p50, tail and throughput", "evaluate-cold"},
	{"cluster.backend_share", "ratio", "lower", "evaluate-hot p50, tail and throughput", "evaluate-cold"},
	{"cluster.hedges", "count", "lower", "evaluate-hot p50, tail and throughput", "evaluate-cold"},
	{"cluster.failovers", "count", "lower", "evaluate-hot p50, tail and throughput", "evaluate-cold"},
	{"stream.create_ms", "ms", "lower", "twin-stream setup_s", "evaluate-cold, evaluate-hot"},
	{"stream.frame_ms", "ms", "lower", "twin-stream throughput_per_s", "evaluate-cold, evaluate-hot"},
	{"stream.http_overhead_ms", "ms", "lower", "twin-stream throughput_per_s", "evaluate-cold, evaluate-hot"},
	{"thermal.transient_step_ms", "ms", "lower", "twin-stream throughput_per_s", "evaluate-cold, evaluate-hot"},
	{"pdn.transient_step_ms", "ms", "lower", "twin-stream throughput_per_s", "evaluate-cold, evaluate-hot"},
	{"trace.residual_ms", "ms", "lower", "latency of every workload (client and loopback time)", "none"},
	{"trace.overhead_pct", "%", "lower", "nothing: tracing cost, traced vs untraced sends of the same inputs", "all"},
}

// counterSeries are the obs.Default counters the traced run reads
// before and after the measured window, summed per key.
var counterSeries = []struct {
	key, name string
	labels    []obs.Label
}{
	{"krylov_iterations", "bright_krylov_iterations_total", []obs.Label{obs.L("method", "cg")}},
	{"krylov_iterations", "bright_krylov_iterations_total", []obs.Label{obs.L("method", "bicgstab")}},
	{"krylov_solves", "bright_krylov_solves_total", []obs.Label{obs.L("method", "cg")}},
	{"krylov_solves", "bright_krylov_solves_total", []obs.Label{obs.L("method", "bicgstab")}},
	{"krylov_maxiter", "bright_krylov_maxiter_total", nil},
	{"mg_cycles", "bright_mg_cycles_total", nil},
	{"mg_setups", "bright_mg_setups_total", []obs.Label{obs.L("kind", "gmg")}},
	{"mg_setups", "bright_mg_setups_total", []obs.Label{obs.L("kind", "amg")}},
	{"spmv_rows", "bright_spmv_rows_total", nil},
	{"blockcg_rhs", "bright_blockcg_rhs_total", nil},
	{"sparse_conversions", "bright_sparse_conversions_total", []obs.Label{obs.L("format", "sell")}},
	{"sparse_conversions", "bright_sparse_conversions_total", []obs.Label{obs.L("format", "sell32")}},
	{"cosim_iterations", "bright_cosim_iterations_total", nil},
	{"cosim_runs", "bright_cosim_runs_total", []obs.Label{obs.L("outcome", "converged")}},
	{"cosim_runs", "bright_cosim_runs_total", []obs.Label{obs.L("outcome", "maxiter")}},
	{"cosim_runs", "bright_cosim_runs_total", []obs.Label{obs.L("outcome", "error")}},
	{"cosim_runs", "bright_cosim_runs_total", []obs.Label{obs.L("outcome", "canceled")}},
	{"cosim_maxiter", "bright_cosim_runs_total", []obs.Label{obs.L("outcome", "maxiter")}},
	{"thermal_warm", "bright_thermal_session_solves_total", []obs.Label{obs.L("warm", "true")}},
	{"thermal_cold", "bright_thermal_session_solves_total", []obs.Label{obs.L("warm", "false")}},
}

// snapshot is the counter state at one instant.
type snapshot struct {
	counters          map[string]float64
	stats             []sim.Stats
	hedges, failovers float64
}

func takeSnapshot(st *stack) snapshot {
	s := snapshot{counters: map[string]float64{}, stats: st.stats()}
	for _, c := range counterSeries {
		s.counters[c.key] += float64(obs.Default.Counter(c.name, "", c.labels...).Value())
	}
	if st.coord != nil {
		s.hedges = float64(st.coord.Metrics().Counter("bright_cluster_hedges_total", "").Value())
		s.failovers = float64(st.coord.Metrics().Counter("bright_cluster_failovers_total", "").Value())
	}
	return s
}

// engineDelta sums an Engine.Stats field's change over the engines.
func engineDelta(a, b snapshot, f func(sim.Stats) uint64) float64 {
	var d float64
	for i := range b.stats {
		d += float64(f(b.stats[i]) - f(a.stats[i]))
	}
	return d
}

// busiestShare is the largest share of requests one engine answered.
func busiestShare(a, b snapshot) float64 {
	var total, top float64
	for i := range b.stats {
		n := float64(b.stats[i].CacheHits + b.stats[i].CacheMisses - a.stats[i].CacheHits - a.stats[i].CacheMisses)
		total += n
		top = max(top, n)
	}
	return ratio(top, total)
}

// layerMetrics computes every per-layer metric of a traced run: counts
// from the measured window's counter deltas, self times from its spans,
// and per-call costs from replaying the workload's generated inputs
// through the layers only reachable inside another call.
func layerMetrics(ctx context.Context, w traffic, m *measurement, before, after snapshot) (map[string]float64, error) {
	b := w.common()
	out := map[string]float64{}
	d := func(key string) float64 { return after.counters[key] - before.counters[key] }
	units := float64(m.units)
	for _, k := range []string{"krylov_iterations", "krylov_solves", "krylov_maxiter", "mg_cycles",
		"mg_setups", "spmv_rows", "blockcg_rhs", "sparse_conversions"} {
		out["num."+k] = d(k) / units
	}
	out["cosim.iterations"] = ratio(d("cosim_iterations"), d("cosim_runs"))
	out["cosim.maxiter_share"] = ratio(d("cosim_maxiter"), d("cosim_runs"))
	out["thermal.warm_solve_ratio"] = ratio(d("thermal_warm"), d("thermal_warm")+d("thermal_cold"))

	hits := engineDelta(before, after, func(s sim.Stats) uint64 { return s.CacheHits })
	misses := engineDelta(before, after, func(s sim.Stats) uint64 { return s.CacheMisses })
	warm := engineDelta(before, after, func(s sim.Stats) uint64 { return s.SweepPointsWarm })
	cold := engineDelta(before, after, func(s sim.Stats) uint64 { return s.SweepPointsCold })
	ops := float64(m.attempted)
	out["sim.cache_hit_ratio"] = ratio(hits, hits+misses)
	out["sim.solves"] = engineDelta(before, after, func(s sim.Stats) uint64 { return s.Solves }) / units
	out["sim.sweep_warm_ratio"] = ratio(warm, warm+cold)
	out["sim.sweep_segments"] = engineDelta(before, after, func(s sim.Stats) uint64 { return s.SweepSegments }) / ops
	out["sim.sweep_steals"] = engineDelta(before, after, func(s sim.Stats) uint64 { return s.SweepSteals }) / ops

	phase := indexSpans(m.spans)
	out["sim.handler_self_ms"] = phase.meanSelfMS(spanHandler)
	out["sim.wait_ms"] = phase.meanWaitMS(spanHandler)
	out["trace.residual_ms"] = phase.meanSelfMS(spanOp)
	out["trace.overhead_pct"] = 0
	if len(m.opMS[0]) > 0 && len(m.opMS[1]) > 0 {
		out["trace.overhead_pct"] = 100 * (median(m.opMS[1])/median(m.opMS[0]) - 1)
	}
	// Only evaluate-hot routes through a coordinator; elsewhere the
	// cluster layer is not reached and reads 0.
	out["cluster.hop_ms"] = phase.meanSelfMS(spanCoord)
	out["cluster.backend_share"] = 0
	if b.st.coord != nil {
		out["cluster.backend_share"] = busiestShare(before, after)
	}
	out["cluster.hedges"] = after.hedges - before.hedges
	out["cluster.failovers"] = after.failovers - before.failovers

	mark := b.tr.mark()
	if err := replayLayers(ctx, b.tr, w.layerConfigs(), out); err != nil {
		return nil, fmt.Errorf("replaying layers: %w", err)
	}
	solverSpans := indexSpans(append(append([]span(nil), m.spans...), b.tr.since(mark)...))
	out["core.evaluate_ms"] = solverSpans.meanDurMS(spanEvaluate)
	out["core.prefetch_ms"] = solverSpans.meanDurMS(spanPrefetch)

	if err := streamProbe(ctx, b, w.layerConfigs()[0], out); err != nil {
		return nil, fmt.Errorf("stream probe: %w", err)
	}
	for _, lm := range layerTable {
		if _, ok := out[lm.Name]; !ok {
			return nil, fmt.Errorf("layer metric %s not computed", lm.Name)
		}
	}
	return out, nil
}

// timed runs fn and returns its wall time (ms) and allocation (MB).
func timed(fn func() error) (ms, allocMB float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	err = fn()
	ms = msSince(t)
	runtime.ReadMemStats(&m1)
	return ms, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, err
}

// pdnLoad is the PDN sink field core.System solves for cfg: the cache
// load at the config's rail voltage, scaled by the chip load.
func pdnLoad(p *pdn.Problem, fp *floorplan.Floorplan, cfg core.Config) *mesh.Field2D {
	load := p.LoadDensity
	if cfg.SupplyVoltage != p.Supply {
		load = pdn.CacheLoad(fp, load.Grid, cfg.SupplyVoltage)
	}
	scaled := &mesh.Field2D{Grid: load.Grid, Data: make([]float64, len(load.Data))}
	for k, v := range load.Data {
		scaled.Data[k] = v * cfg.ChipLoad
	}
	return scaled
}

// replayLayers replays the workload's generated inputs through the
// public function of each layer, in the order core.System calls them:
// the co-simulation runner (flow cell and thermal session inside it),
// the power grid, the hydraulics.
func replayLayers(ctx context.Context, t *tracer, cfgs []core.Config, out map[string]float64) error {
	cfg := cfgs[0]
	root := t.open(spanReplay, 0, "")
	defer t.close(root)
	rctx := withSpan(ctx, root)

	// The whole cold pipeline through the traced solver seam.
	runtime.GC()
	_, alloc, err := timed(func() error {
		_, err := t.solver(sim.DefaultSolver)(rctx, cfg)
		return err
	})
	if err != nil {
		return err
	}
	out["core.evaluate_alloc_mb"] = alloc

	var runner *cosim.Runner
	out["cosim.setup_ms"], out["cosim.setup_alloc_mb"], err = timed(func() (err error) {
		runner, err = cosim.NewRunner(cfg.FlowMLMin, cfg.InletTempC)
		return err
	})
	if err != nil {
		return err
	}
	var p *pdn.Problem
	var ses *pdn.Session
	out["pdn.setup_ms"], out["pdn.setup_alloc_mb"], err = timed(func() (err error) {
		if p, _, err = pdn.Power7Problem(); err != nil {
			return err
		}
		ses, err = pdn.NewSession(p)
		return err
	})
	if err != nil {
		return err
	}

	var res *cosim.Result
	out["cosim.run_ms"], _, err = timed(func() (err error) {
		res, err = runner.RunContext(ctx, cosim.Config{
			TotalFlowMLMin: cfg.FlowMLMin, InletTempC: cfg.InletTempC,
			TerminalVoltage: cfg.SupplyVoltage, ChipLoad: cfg.ChipLoad,
		})
		return err
	})
	if err != nil {
		return err
	}

	// The thermal solves of that run, replayed on a fresh session with
	// each iteration's recorded electrochemical heat.
	tp := thermal.Power7Problem(cfg.FlowMLMin, units.CtoK(cfg.InletTempC), 0)
	tses, err := thermal.NewSession(tp)
	if err != nil {
		return err
	}
	power := &mesh.Field2D{Grid: tp.Power.Grid, Data: make([]float64, len(tp.Power.Data))}
	for k, v := range tp.Power.Data {
		power.Data[k] = v * cfg.ChipLoad
	}
	var solveMS, iters []float64
	for _, h := range res.History {
		ms, _, err := timed(func() error {
			_, err := tses.SolveContext(ctx, power, h.HeatW)
			return err
		})
		if err != nil {
			return err
		}
		solveMS = append(solveMS, ms)
		iters = append(iters, float64(tses.LastIterations()))
	}
	out["thermal.solve_ms"] = mean(solveMS)
	out["thermal.krylov_iters"] = mean(iters)

	// The flow-cell operating point at each iteration's cell
	// temperature; repeated because one call takes about 0.1 ms.
	const flowcellReps = 20
	ms, _, err := timed(func() error {
		for r := 0; r < flowcellReps; r++ {
			for _, h := range res.History {
				if _, err := flowcell.Power7ArrayAt(cfg.FlowMLMin, h.CellTempK).CurrentAtVoltage(cfg.SupplyVoltage); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["flowcell.solve_ms"] = ms / float64(flowcellReps*len(res.History))

	fp := floorplan.Power7()
	out["pdn.solve_ms"], _, err = timed(func() error {
		_, err := ses.Solve(pdnLoad(p, fp, cfg), cfg.SupplyVoltage)
		return err
	})
	if err != nil {
		return err
	}
	loads := make([]*mesh.Field2D, len(cfgs))
	supplies := make([]float64, len(cfgs))
	for i, c := range cfgs {
		loads[i], supplies[i] = pdnLoad(p, fp, c), c.SupplyVoltage
	}
	bses, err := pdn.NewSession(p)
	if err != nil {
		return err
	}
	out["pdn.batch_ms"], _, err = timed(func() error {
		_, err := bses.SolveBatch(loads, supplies)
		return err
	})
	if err != nil {
		return err
	}
	if err := t.prefetch(core.NewBatch().PrefetchChain)(rctx, cfgs); err != nil {
		return err
	}

	// One hydraulic evaluation takes microseconds: time many.
	const hydroReps = 2000
	net := flowcell.Power7ArrayAt(cfg.FlowMLMin, units.CtoK(cfg.InletTempC)).HydraulicNetwork(cfg.ManifoldK, cfg.PumpEfficiency)
	q := units.MLPerMinToM3PerS(cfg.FlowMLMin)
	ms, _, err = timed(func() error {
		for r := 0; r < hydroReps; r++ {
			if _, err := net.Evaluate(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["hydro.evaluate_ms"] = ms / hydroReps
	return nil
}

// streamProbe measures the streaming layer at the workload's first
// operating point: Manager.Create, Session.Advance called directly and
// over HTTP, and the transient thermal and PDN sessions stepped alone
// the way a session steps them.
func streamProbe(ctx context.Context, b *base, cfg core.Config, out map[string]float64) error {
	mgr := stream.NewManager(stream.Options{})
	st := simStack(nil, sim.Options{}, mgr)
	defer st.close()
	on, off := true, false
	spec := stream.Spec{
		FlowMLMin: cfg.FlowMLMin, InletTempC: cfg.InletTempC, SupplyVoltage: cfg.SupplyVoltage,
		MaxFrames: 1000, PDN: &on, Auto: &off,
	}
	var s *stream.Session
	var err error
	out["stream.create_ms"], _, err = timed(func() (err error) {
		s, err = mgr.Create(spec)
		return err
	})
	if err != nil {
		return err
	}
	util := workload.Utilization{Default: cfg.ChipLoad}
	if err := s.SetUtilization(ctx, util); err != nil {
		return err
	}
	const frames = 20
	if _, _, err := s.Advance(ctx, 2); err != nil { // discarded warm-up
		return err
	}
	// Direct and HTTP frames alternate, so both see the same session
	// state as its transient settles.
	url := st.url + "/v1/sessions/" + s.Status().ID + "/advance"
	var direct, viaHTTP []float64
	for i := 0; i < frames; i++ {
		ms, _, err := timed(func() error {
			_, _, err := s.Advance(ctx, 1)
			return err
		})
		if err != nil {
			return err
		}
		direct = append(direct, ms)
		ms, _, err = timed(func() error {
			return call(ctx, b.hc, http.MethodPost, url, map[string]int{"steps": 1}, nil, nil)
		})
		if err != nil {
			return err
		}
		viaHTTP = append(viaHTTP, ms)
	}
	out["stream.frame_ms"] = median(direct)
	out["stream.http_overhead_ms"] = median(viaHTTP) - median(direct)

	// The transient thermal session a stream session steps, built the
	// way the stream engine builds it (44x32 grid, 1 ms steps).
	fp := floorplan.Power7()
	inletK := units.CtoK(cfg.InletTempC)
	tp := &thermal.Problem{
		DieWidth: fp.Width, DieHeight: fp.Height, NX: 44, NY: 32,
		Stack: thermal.Power7Stack(thermal.Power7ChannelSpec(units.MLPerMinToM3PerS(cfg.FlowMLMin), inletK, thermal.VanadiumCoolant())),
	}
	pm := workload.Power7PowerModel()
	tp.Power = pm.DensityField(fp, tp.Grid(), util)
	ts, err := thermal.NewTransientSession(tp, inletK, 1e-3)
	if err != nil {
		return err
	}
	out["thermal.transient_step_ms"], _, err = timed(func() error {
		for i := 0; i < frames; i++ {
			if _, err := ts.StepContext(ctx, tp.Power, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["thermal.transient_step_ms"] /= frames

	// The PDN transient: regulated 1 us sub-steps with on-die decap,
	// alternating the load as a changing utilization does.
	base, _, err := pdn.Power7Problem()
	if err != nil {
		return err
	}
	pts, err := pdn.NewTransientSession(base, 2e-2, 1e-6)
	if err != nil {
		return err
	}
	out["pdn.transient_step_ms"], _, err = timed(func() error {
		for i := 0; i < frames; i++ {
			if _, _, err := pts.Step(cfg.ChipLoad * (1 - 0.1*float64(i%2))); err != nil {
				return err
			}
		}
		return nil
	})
	out["pdn.transient_step_ms"] /= frames
	return err
}
