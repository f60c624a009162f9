package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"

	"bright/internal/core"
	"bright/internal/cosim"
	"bright/internal/flowcell"
	"bright/internal/sim"
	"bright/internal/stream"
	"bright/internal/thermal"
	"bright/internal/units"
)

// traffic is one benchmark workload. The runner calls setup several
// times (each call builds a fresh stack; the previous one is closed),
// runs op in a closed loop from clients() goroutines, then check.
type traffic interface {
	clients() int
	// setup builds the serving stack and warms it: lazy process-wide
	// set-up and caches fill here, outside the measured window.
	setup(ctx context.Context) error
	// op runs client c's operation on its k-th input; a non-nil op span
	// traces it. It returns the work units done and the latency
	// samples (ms).
	op(ctx context.Context, c, k int, op *span) (units int, lat []float64, err error)
	// heapOps is the operation count after which heap_inuse_mb is
	// read; 0 reads it at the end of the window.
	heapOps() int
	// check verifies outputs against independent references.
	check(ctx context.Context)
	// layerConfigs are the generated inputs the traced run replays
	// through the layers only reachable inside another call.
	layerConfigs() []core.Config
	common() *base
}

// base is the state every workload shares.
type base struct {
	gen *generator
	tr  *tracer
	hc  *http.Client
	st  *stack

	// nominal is the warm-up's reply for the paper's nominal config.
	nominal *sim.ReportView

	checks   int
	failed   int
	problems []string
}

func (b *base) common() *base { return b }

// solverStack is the stack of the solver workloads: one engine behind
// sim.NewHandler. A traced run sends each input twice (see measure),
// so its engine has no answer cache, or the second send would be a hit.
func (b *base) solverStack() *stack {
	opts := engineOptions(b.tr)
	if b.tr != nil {
		opts.CacheSize = -1
	}
	return simStack(b.tr, opts, nil)
}

// checkResult counts one output check.
func (b *base) checkResult(what string, err error) {
	b.checks++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, what+": "+err.Error())
	}
}

func newWorkload(name string, b base) (traffic, error) {
	switch name {
	case "evaluate-cold":
		return &coldWorkload{base: b}, nil
	case "sweep-chained":
		return &sweepWorkload{base: b}, nil
	case "evaluate-hot":
		return &hotWorkload{base: b}, nil
	case "twin-stream":
		return &twinWorkload{base: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / nsPerMS }

func evaluateBody(cfg core.Config) sim.EvaluateRequest {
	return sim.EvaluateRequest{
		FlowMLMin:      &cfg.FlowMLMin,
		InletTempC:     &cfg.InletTempC,
		SupplyVoltage:  &cfg.SupplyVoltage,
		ChipLoad:       &cfg.ChipLoad,
		ManifoldK:      &cfg.ManifoldK,
		PumpEfficiency: &cfg.PumpEfficiency,
	}
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// checkView is the per-reply check: the reply answers the config asked,
// the co-simulation converged and every figure is finite and positive
// where physics says so.
func checkView(v sim.ReportView, cfg core.Config) error {
	if v.Config != cfg {
		return fmt.Errorf("reply is for %+v, asked %+v", v.Config, cfg)
	}
	if !v.CoSimConverged {
		return fmt.Errorf("co-simulation did not converge")
	}
	if !finite(v.ArrayCurrentA, v.ArrayPowerW, v.DeliveredW, v.CacheDemandW, v.MinVCacheV,
		v.PeakTempC, v.OutletTempC, v.PumpPowerW, v.PressureDropBar, v.NetElectricalGainW) {
		return fmt.Errorf("non-finite figure in %+v", v)
	}
	if v.ArrayCurrentA <= 0 || v.PumpPowerW <= 0 || v.PeakTempC <= cfg.InletTempC {
		return fmt.Errorf("unphysical reply: %.4g A, %.4g W pumping, peak %.4g C at inlet %.4g C",
			v.ArrayCurrentA, v.PumpPowerW, v.PeakTempC, cfg.InletTempC)
	}
	return nil
}

// checkAnchors ties the nominal reply to the EXPERIMENTS.md anchors.
// Two of them are uncoupled figures while the reply is the coupled
// answer: 6.10 A is the Fig. 7 array current at 1 V and 300 K, and
// 38.2 C the Fig. 9 thermal map without the flow cells' heat. Those are
// recomputed through the same public functions and must round to the
// printed digits. The reply itself must give the 0.93 W pumping anchor,
// the S3 coupling gain of +3.42% over the isothermal reference at its
// inlet, and a peak above the uncoupled one by at most 0.2 K of
// electrochemical heat.
func checkAnchors(v sim.ReportView) error {
	cfg := v.Config
	fig7, err := flowcell.Power7Array().CurrentAtVoltage(1.0)
	if err != nil {
		return err
	}
	iso, err := cosim.IsothermalReference(cosim.Config{
		TotalFlowMLMin: cfg.FlowMLMin, InletTempC: cfg.InletTempC, TerminalVoltage: cfg.SupplyVoltage,
	})
	if err != nil {
		return err
	}
	fig9, err := thermal.Solve(thermal.Power7Problem(cfg.FlowMLMin, units.CtoK(cfg.InletTempC), 0))
	if err != nil {
		return err
	}
	peak9 := units.KtoC(fig9.PeakT)
	gain := v.ArrayCurrentA/iso.Current - 1
	switch {
	case math.Abs(fig7.Current-6.10) > 0.005:
		return fmt.Errorf("Fig. 7 current at 1 V %.4f A, want 6.10 A", fig7.Current)
	case math.Abs(peak9-38.2) > 0.05:
		return fmt.Errorf("Fig. 9 peak %.3f C, want 38.2 C", peak9)
	case math.Abs(v.PumpPowerW-0.93) > 0.005:
		return fmt.Errorf("pumping %.4f W, want 0.93 W", v.PumpPowerW)
	case math.Abs(gain-0.0342) > 0.00005:
		return fmt.Errorf("coupling gain %+.3f%%, want +3.42%%", 100*gain)
	case v.PeakTempC < peak9 || v.PeakTempC > peak9+0.2:
		return fmt.Errorf("coupled peak %.3f C outside [%.3f, +0.2 K]", v.PeakTempC, peak9)
	}
	return nil
}

// tolerance bounds |got-want| by Abs + Rel*|want| for one output.
type tolerance struct{ Rel, Abs float64 }

// Per-output tolerances. A cold answer over HTTP runs the same solver
// as the in-process reference, so it must agree to rounding. A sweep
// point is warm-started, and the co-simulation stops within 0.01 K of
// its fixed point, so it agrees with a cold evaluate only within that.
var (
	coldTolerance = map[string]tolerance{
		"array_current_a": {Rel: 1e-9}, "peak_temp_c": {Rel: 1e-9}, "min_v_cache_v": {Rel: 1e-9},
		"pump_power_w": {Rel: 1e-9}, "net_electrical_gain_w": {Rel: 1e-9},
	}
	warmTolerance = map[string]tolerance{
		"array_current_a": {Rel: 2e-3}, "peak_temp_c": {Abs: 0.05}, "min_v_cache_v": {Abs: 1e-5},
		"pump_power_w": {Rel: 1e-9}, "net_electrical_gain_w": {Abs: 0.02},
	}
)

func compareViews(got, want sim.ReportView, tol map[string]tolerance) error {
	vals := map[string][2]float64{
		"array_current_a":       {got.ArrayCurrentA, want.ArrayCurrentA},
		"peak_temp_c":           {got.PeakTempC, want.PeakTempC},
		"min_v_cache_v":         {got.MinVCacheV, want.MinVCacheV},
		"pump_power_w":          {got.PumpPowerW, want.PumpPowerW},
		"net_electrical_gain_w": {got.NetElectricalGainW, want.NetElectricalGainW},
	}
	for name, t := range tol {
		v := vals[name]
		if math.Abs(v[0]-v[1]) > t.Abs+t.Rel*math.Abs(v[1]) {
			return fmt.Errorf("%s = %.9g, reference %.9g", name, v[0], v[1])
		}
	}
	return nil
}

// reference evaluates cfg in process on a fresh core.System.
func reference(cfg core.Config) (sim.ReportView, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return sim.ReportView{}, err
	}
	rep, err := sys.Evaluate()
	if err != nil {
		return sim.ReportView{}, err
	}
	return sim.NewReportView(rep), nil
}

// answer is a reply kept for the after-run checks.
type answer struct {
	cfg  core.Config
	view sim.ReportView
}

// checkSample compares a seeded pick of answers against in-process
// cold evaluations.
func (b *base) checkSample(what string, answers []answer, n int, tol map[string]tolerance) {
	if len(answers) == 0 {
		b.checkResult(what, fmt.Errorf("no answers to check"))
		return
	}
	rng := rand.New(rand.NewPCG(b.gen.seed, 0x636865636b))
	for i := 0; i < n; i++ {
		a := answers[rng.IntN(len(answers))]
		ref, err := reference(a.cfg)
		if err == nil {
			err = compareViews(a.view, ref, tol)
		}
		b.checkResult(fmt.Sprintf("%s %+v", what, a.cfg), err)
	}
}

// nominalWarmUp evaluates the paper's nominal config (discarded) to
// finish lazy process-wide set-up, keeping the first reply for the
// anchor check.
func (b *base) nominalWarmUp(ctx context.Context) error {
	var v sim.ReportView
	if err := call(ctx, b.hc, http.MethodPost, b.st.url+"/v1/evaluate", struct{}{}, &v, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if b.nominal == nil {
		b.nominal = &v
	}
	return nil
}

func (b *base) checkNominal() {
	err := fmt.Errorf("no nominal reply")
	if b.nominal != nil {
		err = checkAnchors(*b.nominal)
	}
	b.checkResult("nominal config over HTTP vs EXPERIMENTS.md anchors", err)
}

// --- evaluate-cold ---------------------------------------------------

// coldWorkload is one client posting distinct configs straight to
// sim.NewHandler: every request misses the cache and pays the full
// solver set-up.
type coldWorkload struct {
	base
	answers []answer
}

func (w *coldWorkload) clients() int { return 1 }

// heapOps: the cache holds one answer per request, so the heap is read
// at a count every run reaches.
func (w *coldWorkload) heapOps() int { return 8 }

// setup warms the nominal config and one more, outside the generated
// requests, so set-up is a sum of two solves.
func (w *coldWorkload) setup(ctx context.Context) error {
	w.st = w.solverStack()
	if err := w.nominalWarmUp(ctx); err != nil {
		return err
	}
	var v sim.ReportView
	if err := call(ctx, w.hc, http.MethodPost, w.st.url+"/v1/evaluate", evaluateBody(w.gen.coldConfig(-1)), &v, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (w *coldWorkload) op(ctx context.Context, c, k int, op *span) (int, []float64, error) {
	cfg := w.gen.coldConfig(k)
	var v sim.ReportView
	t := time.Now()
	err := call(ctx, w.hc, http.MethodPost, w.st.url+"/v1/evaluate", evaluateBody(cfg), &v, op)
	lat := msSince(t)
	if err == nil {
		err = checkView(v, cfg)
	}
	if err == nil {
		w.answers = append(w.answers, answer{cfg, v})
	}
	return 1, []float64{lat}, err
}

func (w *coldWorkload) check(ctx context.Context) {
	w.checkNominal()
	w.checkSample("cold answer vs in-process evaluate", w.answers, 1, coldTolerance)
}

func (w *coldWorkload) layerConfigs() []core.Config {
	return []core.Config{w.gen.coldConfig(0), w.gen.coldConfig(1), w.gen.coldConfig(2)}
}

// --- sweep-chained ---------------------------------------------------

// sweepPoll is the job polling interval, short against a sweep's
// seconds-long makespan.
const sweepPoll = 20 * time.Millisecond

// sweepWorkload is one client submitting a skewed pair of sweep jobs
// and polling both until they finish. Its latency is that makespan,
// what the caller of a sweep waits for: a point's own solve time is
// bimodal (one or two co-simulation iterations when warm, six when
// cold), so its median jumps between modes from run to run.
type sweepWorkload struct {
	base
	answers []answer
}

func (w *sweepWorkload) clients() int { return 1 }

// heapOps: the cache holds every solved point, so the heap is read at
// a count every run reaches.
func (w *sweepWorkload) heapOps() int { return 2 }

// setup warms the nominal config and a two-point sweep chain (one cold
// and one warm point), so set-up is a sum of work and the sweep path's
// lazy set-up happens here.
func (w *sweepWorkload) setup(ctx context.Context) error {
	w.st = w.solverStack()
	if err := w.nominalWarmUp(ctx); err != nil {
		return err
	}
	base := core.DefaultConfig()
	views, err := w.runJobs(ctx, []sim.SweepSpec{{Base: &base, ChipLoads: []float64{0.9, 0.95}}}, nil)
	if err == nil && (views[0].State != sim.JobDone || views[0].Completed != 2) {
		err = fmt.Errorf("state %s, %d/2 points", views[0].State, views[0].Completed)
	}
	if err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	return nil
}

// runJobs submits each spec as a sweep job and polls them until all
// have finished.
func (w *sweepWorkload) runJobs(ctx context.Context, specs []sim.SweepSpec, op *span) ([]sim.JobView, error) {
	ids := make([]string, len(specs))
	for i, spec := range specs {
		var sub struct {
			JobID string `json:"job_id"`
		}
		if err := call(ctx, w.hc, http.MethodPost, w.st.url+"/v1/sweep", spec, &sub, op); err != nil {
			return nil, err
		}
		ids[i] = sub.JobID
	}
	views := make([]sim.JobView, len(ids))
	for pending := len(ids); pending > 0; {
		time.Sleep(sweepPoll)
		pending = 0
		for i, id := range ids {
			if views[i].State != "" && views[i].State != sim.JobRunning {
				continue
			}
			if err := call(ctx, w.hc, http.MethodGet, w.st.url+"/v1/jobs/"+id, nil, &views[i], op); err != nil {
				return nil, err
			}
			if views[i].State == sim.JobRunning {
				pending++
			}
		}
	}
	return views, nil
}

func (w *sweepWorkload) op(ctx context.Context, c, k int, op *span) (int, []float64, error) {
	if op != nil {
		w.tr.cur.Store(op)
		defer w.tr.cur.Store(nil)
	}
	start := time.Now()
	specs := w.gen.sweepOp(k)
	views, err := w.runJobs(ctx, specs[:], op)
	if err != nil {
		return 0, nil, err
	}
	lat := []float64{msSince(start)}
	var firstErr error
	units := 0
	for i, v := range views {
		if v.State != sim.JobDone || v.Completed != v.Total || len(v.Results) != v.Total {
			firstErr = fmt.Errorf("job %s: state %s, %d/%d points", v.ID, v.State, v.Completed, v.Total)
		}
		for _, pr := range v.Results {
			units++
			var err error
			switch {
			case pr.Error != "":
				err = fmt.Errorf("point %d: %s", pr.Index, pr.Error)
			case pr.Report == nil:
				err = fmt.Errorf("point %d: no report", pr.Index)
			default:
				err = checkView(*pr.Report, pr.Config)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			// Keep warm long-chain points for the after-run check.
			if err == nil && i == 0 && pr.Index > 0 {
				w.answers = append(w.answers, answer{pr.Config, *pr.Report})
			}
		}
	}
	return units, lat, firstErr
}

func (w *sweepWorkload) check(ctx context.Context) {
	w.checkNominal()
	w.checkSample("warm sweep point vs cold evaluate", w.answers, 1, warmTolerance)
}

func (w *sweepWorkload) layerConfigs() []core.Config {
	grid, err := w.gen.sweepOp(0)[0].Grid()
	if err != nil {
		panic(err) // the generator only emits valid grids
	}
	return grid[:16]
}

// --- evaluate-hot ----------------------------------------------------

// hotWorkload is nproc clients posting a small primed working set
// through a cluster.Coordinator to two sim.NewHandler backends: every
// request is a cache hit.
type hotWorkload struct {
	base
	set     []core.Config
	primed  []sim.ReportView
	pickers []*rand.Rand
}

func (w *hotWorkload) clients() int { return runtime.NumCPU() }

// heapOps: the working set is cached during set-up, so the heap does
// not grow with the requests; it is read at the end of the window.
func (w *hotWorkload) heapOps() int { return 0 }

func (w *hotWorkload) setup(ctx context.Context) error {
	st, err := clusterStack(w.tr, hotBackends)
	if err != nil {
		return err
	}
	w.st = st
	w.set = w.gen.hotSet()
	w.primed = make([]sim.ReportView, len(w.set))
	errs := make([]error, len(w.set))
	var wg sync.WaitGroup
	sem := make(chan struct{}, w.clients())
	for i, cfg := range w.set {
		wg.Add(1)
		go func(i int, cfg core.Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = call(ctx, w.hc, http.MethodPost, st.url+"/v1/evaluate", evaluateBody(cfg), &w.primed[i], nil)
			if errs[i] == nil {
				errs[i] = checkView(w.primed[i], cfg)
			}
		}(i, cfg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	// A priming solve slower than the coordinator's hedge delay is
	// hedged to the other backend, whose canceled duplicate runs on to
	// its next iteration boundary: let it finish before measuring.
	if err := st.waitIdle(ctx); err != nil {
		return err
	}
	w.pickers = make([]*rand.Rand, w.clients())
	for c := range w.pickers {
		w.pickers[c] = w.gen.hotPicker(c)
	}
	// Discarded warm-up: connection pools and the coordinator's
	// latency histogram fill here.
	for i := 0; i < 50; i++ {
		var v sim.ReportView
		if err := call(ctx, w.hc, http.MethodPost, st.url+"/v1/evaluate", evaluateBody(w.set[i%len(w.set)]), &v, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *hotWorkload) op(ctx context.Context, c, k int, op *span) (int, []float64, error) {
	i := w.pickers[c].IntN(len(w.set))
	var v sim.ReportView
	t := time.Now()
	err := call(ctx, w.hc, http.MethodPost, w.st.url+"/v1/evaluate", evaluateBody(w.set[i]), &v, op)
	lat := msSince(t)
	if err == nil && v != w.primed[i] {
		err = fmt.Errorf("reply for %+v differs from the primed answer", w.set[i])
	}
	return 1, []float64{lat}, err
}

// check: every reply was already compared with its primed answer.
func (w *hotWorkload) check(ctx context.Context) {}

func (w *hotWorkload) layerConfigs() []core.Config { return w.gen.hotSet() }

// --- twin-stream -----------------------------------------------------

// twinWorkload is nproc clients, each stepping its own manual session
// (PDN transient on) a fixed number of frames per request.
type twinWorkload struct {
	base
	ids []string
	seq []uint64 // last frame sequence number seen per client
}

func (w *twinWorkload) clients() int { return runtime.NumCPU() }

// heapOps: the sessions are built during set-up; the heap is read at
// the end of the window.
func (w *twinWorkload) heapOps() int { return 0 }

type advanceReply struct {
	Stepped int           `json:"stepped"`
	Frame   *stream.Frame `json:"frame"`
	Error   string        `json:"error"`
}

func (w *twinWorkload) setup(ctx context.Context) error {
	w.st = simStack(w.tr, engineOptions(w.tr), stream.NewManager(stream.Options{}))
	w.ids = make([]string, w.clients())
	w.seq = make([]uint64, w.clients())
	for c := range w.ids {
		spec, util := w.gen.twinSession(c)
		var st stream.Status
		if err := call(ctx, w.hc, http.MethodPost, w.st.url+"/v1/sessions", spec, &st, nil); err != nil {
			return fmt.Errorf("creating session: %w", err)
		}
		w.ids[c] = st.ID
		if err := call(ctx, w.hc, http.MethodPost, w.sessionURL(c)+"/utilization", util, nil, nil); err != nil {
			return fmt.Errorf("setting utilization: %w", err)
		}
		// Discarded warm-up frames.
		if _, _, err := w.op(ctx, c, -1, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *twinWorkload) sessionURL(c int) string { return w.st.url + "/v1/sessions/" + w.ids[c] }

func (w *twinWorkload) op(ctx context.Context, c, k int, op *span) (int, []float64, error) {
	var r advanceReply
	t := time.Now()
	err := call(ctx, w.hc, http.MethodPost, w.sessionURL(c)+"/advance", map[string]int{"steps": twinSteps}, &r, op)
	lat := msSince(t)
	if err != nil {
		return 0, []float64{lat}, err
	}
	if err := checkFrame(r, w.seq[c]); err != nil {
		return r.Stepped, []float64{lat}, err
	}
	w.seq[c] = r.Frame.Seq
	return r.Stepped, []float64{lat}, nil
}

// checkFrame: the advance stepped every frame asked, the sequence
// continues where the last reply left it and the frame is finite.
func checkFrame(r advanceReply, prevSeq uint64) error {
	if r.Error != "" || r.Stepped != twinSteps || r.Frame == nil {
		return fmt.Errorf("advance stepped %d of %d: %q", r.Stepped, twinSteps, r.Error)
	}
	f := r.Frame
	if f.Seq != prevSeq+twinSteps {
		return fmt.Errorf("frame %d after frame %d, want +%d", f.Seq, prevSeq, twinSteps)
	}
	if !finite(f.TimeS, f.ChipPowerW, f.PeakTempC, f.MeanFluidTempC, f.FilmTempC, f.ArrayCurrentA,
		f.ArrayPowerW, f.DeliveredW, f.ArrayHeatW, f.MinVCacheV, f.DroopMV, f.PumpPowerW, f.NetGainW) {
		return fmt.Errorf("non-finite frame %+v", *f)
	}
	return nil
}

// check: each session's frame count adds up to the frames stepped.
func (w *twinWorkload) check(ctx context.Context) {
	for c := range w.ids {
		var st stream.Status
		err := call(ctx, w.hc, http.MethodGet, w.sessionURL(c), nil, &st, nil)
		if err == nil && (uint64(st.Frames) != w.seq[c] || st.NextSeq != w.seq[c]+1) {
			err = fmt.Errorf("session reports %d frames, next %d; client stepped %d", st.Frames, st.NextSeq, w.seq[c])
		}
		w.checkResult("session "+w.ids[c]+" frame count", err)
	}
}

func (w *twinWorkload) layerConfigs() []core.Config {
	cfgs := make([]core.Config, w.clients())
	for c := range cfgs {
		spec, _ := w.gen.twinSession(c)
		cfgs[c] = twinConfig(spec)
	}
	return cfgs
}
