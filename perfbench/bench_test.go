package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"bright/internal/core"
	"bright/internal/sim"
	"bright/internal/stream"
	"bright/internal/workload"
)

func TestGeneratedInputsAreSeedDeterministic(t *testing.T) {
	a, err := newGenerator(7).sample(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newGenerator(7).sample(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	c, err := newGenerator(8).sample(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds generated the same inputs")
	}
}

func TestGeneratedInputsAreValidAndDistinct(t *testing.T) {
	g := newGenerator(3)
	seen := map[string]bool{}
	for k := 0; k < 500; k++ {
		cfg := g.coldConfig(k)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("cold config %d: %v", k, err)
		}
		if seen[cfg.CanonicalKey()] {
			t.Fatalf("cold config %d repeats an earlier one", k)
		}
		seen[cfg.CanonicalKey()] = true
	}
	for k := 0; k < 50; k++ {
		specs := g.sweepOp(k)
		long, err := specs[0].Grid()
		if err != nil {
			t.Fatal(err)
		}
		short, err := specs[1].Grid()
		if err != nil {
			t.Fatal(err)
		}
		if len(long) != longChainPoints || len(short) != shortChains*shortChainPoints {
			t.Fatalf("sweep %d: %d and %d points", k, len(long), len(short))
		}
		for _, cfg := range append(long, short...) {
			if seen[cfg.CanonicalKey()] {
				t.Fatalf("sweep %d repeats a point", k)
			}
			seen[cfg.CanonicalKey()] = true
		}
	}
}

func TestTailOf(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tailOf must sort
		}
		return xs
	}
	cases := []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{0, 0, 0, 0},
		{1, 1, 100, 0},
		{10, 10, 100, 0}, // no percentile has ten samples beyond it
		{11, 1, 9, 10},
		{22, 12, 54, 10},
		{24, 14, 58, 10},
		{100, 90, 90, 10},
		{1000, 950, 95, 50},
		{30000, 28500, 95, 1500},
	}
	for _, c := range cases {
		got := tailRule(seq(c.n))
		if got.Value != c.value || got.Percentile != c.pct || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("n=%d: got %+v, want value %g at p%g with %d beyond", c.n, got, c.value, c.pct, c.beyond)
		}
	}
}

func TestTailOfWindows(t *testing.T) {
	// 3000 samples of 1 ms with 5% at 5 ms: every window's p95 sits at
	// the edge of the slow 5%.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 1
		if i%20 == 19 {
			xs[i] = 5
		}
	}
	base := tailOf(xs)
	if base.Windows != 3 || base.Percentile != 95 || base.Samples != 3000 {
		t.Fatalf("got %+v, want p95 over 3 windows of 3000 samples", base)
	}
	// A burst that makes one window's slowest 5% slower moves that
	// window's tail only; the median over windows stays.
	for i := 0; i < 50; i++ {
		xs[i] = 50
	}
	if got := tailOf(xs); got.Value != base.Value {
		t.Errorf("a burst in one window moved the tail from %g to %g", base.Value, got.Value)
	}
	// Fewer samples than one window: the rule over all of them.
	if got, want := tailOf(xs[:500]), tailRule(xs[:500]); got.Value != want.Value || got.Windows != 1 {
		t.Errorf("500 samples: got %+v, want %+v in one window", got, want)
	}
}

func TestThroughputOf(t *testing.T) {
	// 3000 operations of 1 unit, one every millisecond, except a
	// 2-second stall before the 100th.
	done := make([]float64, 3000)
	units := make([]int, 3000)
	for i := range done {
		done[i] = float64(i+1) / 1000
		if i >= 99 {
			done[i] += 2
		}
		units[i] = 1
	}
	// Three windows of 1000: the stall slows the first only.
	if got := throughputOf(done, units, 5); math.Abs(got-1000) > 1e-6 {
		t.Errorf("windowed throughput %g, want 1000/s", got)
	}
	// One window: all units over the elapsed time.
	if got := throughputOf(done[:500], units[:500], 2.5); got != 200 {
		t.Errorf("single-window throughput %g, want 200/s", got)
	}
}

// A traced run sends every input twice, once traced, and traces as
// many first sends as second ones.
func TestTracedSend(t *testing.T) {
	traced := map[int]int{}
	first := 0
	for k := 0; k < 16; k++ {
		in, tr := tracedSend(k)
		if in != k/2 {
			t.Fatalf("send %d carries input %d", k, in)
		}
		if tr {
			traced[in]++
			if k%2 == 0 {
				first++
			}
		}
	}
	for in := 0; in < 8; in++ {
		if traced[in] != 1 {
			t.Errorf("input %d traced %d times", in, traced[in])
		}
	}
	if first != 4 {
		t.Errorf("%d of 8 traced sends went first", first)
	}
}

func TestSelfTime(t *testing.T) {
	ch := func(a, b int64) span { return span{Start: a, End: b} }
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{ch(10, 30)}, 80},
		{"disjoint", []span{ch(10, 20), ch(50, 70)}, 70},
		{"overlapping", []span{ch(10, 40), ch(30, 60)}, 50},
		{"nested", []span{ch(10, 60), ch(20, 30)}, 50},
		{"clipped to the parent", []span{ch(-10, 10), ch(90, 150)}, 80},
		{"outside the parent", []span{ch(200, 300)}, 100},
		{"unsorted", []span{ch(50, 70), ch(10, 20), ch(15, 30)}, 60},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBenchmarkJSONMatchesLayerTable(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(spec.PerLayer), len(layerTable))
	}
	for i, lm := range layerTable {
		got := spec.PerLayer[i]
		if got.Name != lm.Name || got.Unit != lm.Unit || got.Better != lm.Better {
			t.Errorf("per_layer[%d] = %+v, table has %s %s %s", i, got, lm.Name, lm.Unit, lm.Better)
		}
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, base{}); err != nil {
			t.Error(err)
		}
	}
	want := map[string]string{
		"latency_p50_ms": "ms", "latency_tail_ms": "ms", "throughput_per_s": "1/s",
		"alloc_mb_per_op": "MB", "heap_inuse_mb": "MB", "setup_s": "s",
	}
	if len(spec.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the run reports %d", len(spec.EndToEnd), len(want))
	}
	for _, m := range spec.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end %s in %s, the run reports %q", m.Name, m.Unit, want[m.Name])
		}
	}
}

// The traced engine options wrap both solver seams; wrapping Solver
// alone would make sweep chains stateless.
func TestTracedWrappersKeepWarmChaining(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real solves")
	}
	base := core.DefaultConfig()
	spec := sim.SweepSpec{Base: &base, ChipLoads: []float64{0.8, 0.85, 0.9}}
	sweep := func(tr *tracer) (sim.Stats, []sim.PointResult) {
		eng := sim.New(engineOptions(tr))
		defer eng.Shutdown(context.Background())
		if tr != nil {
			op := tr.open(spanOp, 0, "")
			tr.cur.Store(op)
			defer tr.close(op)
		}
		job, err := eng.SubmitSweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for job.Snapshot().State == sim.JobRunning {
			time.Sleep(10 * time.Millisecond)
		}
		return eng.Stats(), job.Snapshot().Results
	}
	plain, plainRes := sweep(nil)
	tr := newTracer()
	traced, tracedRes := sweep(tr)
	ratio := func(s sim.Stats) float64 {
		return float64(s.SweepPointsWarm) / float64(s.SweepPointsWarm+s.SweepPointsCold)
	}
	if ratio(plain) != ratio(traced) || ratio(plain) == 0 {
		t.Fatalf("warm ratio %g untraced, %g traced", ratio(plain), ratio(traced))
	}
	if n := len(indexSpans(tr.since(0)).byName[spanEvaluate]); n != len(spec.ChipLoads) {
		t.Errorf("%d core.evaluate spans for %d points", n, len(spec.ChipLoads))
	}
	byIndex := map[int]*sim.ReportView{}
	for _, r := range plainRes {
		byIndex[r.Index] = r.Report
	}
	for _, r := range tracedRes {
		if want := byIndex[r.Index]; want == nil || r.Report == nil || *want != *r.Report {
			t.Errorf("point %d differs between the traced and untraced sweep", r.Index)
		}
	}
}

// Two runs of evaluate-cold on one seed must do exactly the same solver
// work: a count that moves between them is a nondeterminism regression,
// not timing noise.
func TestColdCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real solves")
	}
	keys := []string{"cosim_iterations", "krylov_iterations", "mg_cycles", "spmv_rows"}
	counts := func() map[string]float64 {
		st := simStack(nil, sim.Options{}, nil)
		defer st.close()
		hc := newHTTPClient(1)
		defer hc.CloseIdleConnections()
		w := &coldWorkload{base: base{gen: newGenerator(42), hc: hc, st: st}}
		before := takeSnapshot(st)
		for k := 0; k < 2; k++ {
			if _, _, err := w.op(context.Background(), 0, k, nil); err != nil {
				t.Fatal(err)
			}
		}
		after := takeSnapshot(st)
		d := map[string]float64{}
		for _, k := range keys {
			d[k] = after.counters[k] - before.counters[k]
		}
		return d
	}
	a, b := counts(), counts()
	for _, k := range keys {
		if a[k] != b[k] || a[k] == 0 {
			t.Errorf("%s: %g then %g", k, a[k], b[k])
		}
	}
}

func TestCheckFrame(t *testing.T) {
	ok := advanceReply{Stepped: twinSteps, Frame: &stream.Frame{Seq: 12}}
	if err := checkFrame(ok, 12-twinSteps); err != nil {
		t.Errorf("contiguous frame rejected: %v", err)
	}
	if err := checkFrame(ok, 12-twinSteps-1); err == nil {
		t.Error("a gap in the frame sequence passed")
	}
	short := advanceReply{Stepped: twinSteps - 1, Frame: &stream.Frame{Seq: 12}}
	if err := checkFrame(short, 12-twinSteps); err == nil {
		t.Error("a short advance passed")
	}
	nan := advanceReply{Stepped: twinSteps, Frame: &stream.Frame{Seq: 12, PeakTempC: math.NaN()}}
	if err := checkFrame(nan, 12-twinSteps); err == nil {
		t.Error("a NaN frame passed")
	}
}

func TestCallReportsNon2xx(t *testing.T) {
	st := simStack(nil, sim.Options{}, nil)
	defer st.close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	err := call(context.Background(), hc, http.MethodPost, st.url+"/v1/evaluate", map[string]float64{"flow_ml_min": -1}, nil, nil)
	if err == nil {
		t.Fatal("a 400 reply was not an error")
	}
}

// sample renders the first n inputs of every workload, for the
// determinism test.
func (g *generator) sample(n, clients int) ([]byte, error) {
	type twin struct {
		Spec stream.Spec          `json:"spec"`
		Util workload.Utilization `json:"util"`
	}
	var s struct {
		Cold  []core.Config      `json:"cold"`
		Sweep [][2]sim.SweepSpec `json:"sweep"`
		Hot   []core.Config      `json:"hot"`
		Picks [][]int            `json:"picks"`
		Twin  []twin             `json:"twin"`
	}
	for k := 0; k < n; k++ {
		s.Cold = append(s.Cold, g.coldConfig(k))
		s.Sweep = append(s.Sweep, g.sweepOp(k))
	}
	s.Hot = g.hotSet()
	for c := 0; c < clients; c++ {
		p := g.hotPicker(c)
		picks := make([]int, n)
		for i := range picks {
			picks[i] = p.IntN(hotBackends)
		}
		s.Picks = append(s.Picks, picks)
		spec, util := g.twinSession(c)
		s.Twin = append(s.Twin, twin{spec, util})
	}
	return json.Marshal(s)
}

// The evaluate-hot working set puts one config on each backend: the
// benchmark's copy of the ring agrees with the coordinator's routing.
func TestHotSetSpreadsOverBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real solves")
	}
	st, err := clusterStack(nil, hotBackends)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	// Priming solves may be hedged to the other backend; the second
	// round is answered from the owner's cache alone.
	for round := 0; round < 2; round++ {
		for _, cfg := range newGenerator(9).hotSet() {
			var v sim.ReportView
			if err := call(context.Background(), hc, http.MethodPost, st.url+"/v1/evaluate", evaluateBody(cfg), &v, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range st.stats() {
		if s.CacheHits != 1 {
			t.Errorf("backend %d answered %d working-set configs from its cache, want 1", i, s.CacheHits)
		}
	}
}
