package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bright/internal/core"
	"bright/internal/cosim"
	"bright/internal/flowcell"
	"bright/internal/hydro"
	"bright/internal/pdn"
	"bright/internal/sim"
	"bright/internal/thermal"
)

// fakeReport builds a structurally complete report (every pointer the
// view/summary layer dereferences is non-nil) without running solvers.
func fakeReport(cfg core.Config) *core.Report {
	return &core.Report{
		Config: cfg,
		CoSim: &cosim.Result{
			Iterations: 3,
			Converged:  true,
			Operating:  flowcell.OperatingPoint{Current: 6.3, Voltage: cfg.SupplyVoltage, Power: 6.3 * cfg.SupplyVoltage},
			Thermal:    &thermal.Solution{PeakT: 311.4, OutletT: 301.4},
		},
		CacheDemandW:       2.2,
		CacheDemandA:       2.2,
		DeliveredW:         5.4,
		PowersCaches:       true,
		Grid:               &pdn.Solution{MinVCache: 0.962},
		Thermal:            &thermal.Solution{PeakT: 311.4, OutletT: 301.4},
		PeakTempC:          38.3,
		Hydraulics:         hydro.Report{TotalDrop: 41300, PressureGradient: 1.9e6, PumpPower: 0.93},
		NetElectricalGainW: 4.5,
	}
}

// fakeSolver counts solves and records the chain keys it saw, so tests
// can assert chain-to-shard placement. delay stalls every solve (a slow
// shard for hedge tests).
type fakeSolver struct {
	calls atomic.Int64
	delay time.Duration

	mu   sync.Mutex
	keys map[string]bool
}

func (s *fakeSolver) solve(ctx context.Context, cfg core.Config) (*core.Report, error) {
	s.calls.Add(1)
	s.mu.Lock()
	if s.keys == nil {
		s.keys = make(map[string]bool)
	}
	s.keys[cfg.ChainKey()] = true
	s.mu.Unlock()
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return fakeReport(cfg), nil
}

func (s *fakeSolver) chainKeys() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]bool, len(s.keys))
	for k := range s.keys {
		out[k] = true
	}
	return out
}

// testBackend is one in-process shard: a real sim engine + handler on
// an httptest server. stallSweeps makes that many upcoming POST
// /v1/sweep requests hang until the client gives up (a wedged shard the
// ring still counts as alive); stalledSweeps counts the ones that did.
// stallPuts does the same to upcoming PUT /v1/cache/snapshot requests,
// and failPuts makes every snapshot PUT answer 500.
type testBackend struct {
	solver *fakeSolver
	engine *sim.Engine
	srv    *httptest.Server
	addr   string

	stallSweeps   atomic.Int64
	stalledSweeps atomic.Int64
	stallPuts     atomic.Int64
	stalledPuts   atomic.Int64
	failPuts      atomic.Bool
}

func newTestBackend(t *testing.T, solver *fakeSolver) *testBackend {
	t.Helper()
	e := sim.New(sim.Options{Workers: 2, Solver: solver.solve})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	b := &testBackend{solver: solver, engine: e}
	h := sim.NewHandler(e)
	mux := http.NewServeMux()
	mux.Handle("/", h)
	stall := func(budget, stalled *atomic.Int64) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if n := budget.Load(); n > 0 && budget.CompareAndSwap(n, n-1) {
				stalled.Add(1)
				// Reading the body lets the server notice the client hang up.
				if _, err := io.Copy(io.Discard, r.Body); err == nil {
					<-r.Context().Done()
				}
				return
			}
			h.ServeHTTP(w, r)
		}
	}
	mux.HandleFunc("POST /v1/sweep", stall(&b.stallSweeps, &b.stalledSweeps))
	putSnapshot := stall(&b.stallPuts, &b.stalledPuts)
	mux.HandleFunc("PUT /v1/cache/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if b.failPuts.Load() {
			http.Error(w, "snapshot restore unavailable", http.StatusInternalServerError)
			return
		}
		putSnapshot(w, r)
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	b.addr = strings.TrimPrefix(b.srv.URL, "http://")
	return b
}

// testCluster boots n in-process shards plus a coordinator.
type testCluster struct {
	backends []*testBackend
	coord    *Coordinator
	srv      *httptest.Server
}

func newTestCluster(t *testing.T, n int, mod func(*Options)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		b := newTestBackend(t, &fakeSolver{})
		tc.backends = append(tc.backends, b)
		addrs[i] = b.addr
	}
	// The hedge floor is far above any in-process latency so hedging
	// never fires by accident (the hedge test lowers it deliberately);
	// a stray hedge would double-solve and break exact-count asserts.
	opts := Options{Backends: addrs, HedgeMin: 30 * time.Second}
	if mod != nil {
		mod(&opts)
	}
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.srv = httptest.NewServer(coord.Handler())
	t.Cleanup(tc.srv.Close)
	return tc
}

// startRun runs the coordinator's health/sweep/snapshot loop until the
// test ends, waiting for it to exit so leakcheck sees it gone.
func (tc *testCluster) startRun(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tc.coord.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// waitJob polls the coordinator's merged view until the job leaves the
// running state.
func (tc *testCluster) waitJob(t *testing.T, id string, timeout time.Duration) sim.JobView {
	t.Helper()
	var view sim.JobView
	deadline := time.Now().Add(timeout)
	for {
		getJSON(t, tc.srv.URL+"/v1/jobs/"+id, &view)
		if view.State != sim.JobRunning {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster job %s stuck: %+v", id, view)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// backendFor returns the shard currently owning the config's canonical
// key.
func (tc *testCluster) backendFor(t *testing.T, cfg core.Config) *testBackend {
	t.Helper()
	addr, ok := tc.coord.ring.lookup(cfg.CanonicalKey())
	if !ok {
		t.Fatal("no alive backends in ring")
	}
	for _, b := range tc.backends {
		if b.addr == addr {
			return b
		}
	}
	t.Fatalf("ring routed to unknown backend %s", addr)
	return nil
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCoordinatorRoutesByCanonicalKey(t *testing.T) {
	tc := newTestCluster(t, 3, nil)

	// The same configuration, evaluated repeatedly, must land on one
	// shard and be solved exactly once (the repeats are cache hits).
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %d: %d: %s", i, resp.StatusCode, body)
		}
		var view sim.ReportView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.Config.FlowMLMin != 300 {
			t.Fatalf("config echo lost the override: %+v", view.Config)
		}
	}
	var total int64
	for _, b := range tc.backends {
		total += b.solver.calls.Load()
	}
	if total != 1 {
		t.Fatalf("3 identical evaluates caused %d solves across the fleet, want 1", total)
	}

	// Distinct configurations are each solved once, on the shard the
	// ring assigns their canonical key. (The ring's spread is checked on
	// fixed addresses in TestRingDeterministicAndBalanced: here the
	// ports are random, and with them a shard owns none of 21 keys in
	// a few percent of runs.)
	want := map[string]int64{}
	own := func(flow float64) {
		cfg := core.DefaultConfig()
		cfg.FlowMLMin = flow
		owner, ok := tc.coord.ring.lookup(cfg.CanonicalKey())
		if !ok {
			t.Fatal("no alive backends in ring")
		}
		want[owner]++
	}
	own(300)
	for i := 0; i < 20; i++ {
		resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate",
			fmt.Sprintf(`{"flow_ml_min": %d}`, 100+10*i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate: %d: %s", resp.StatusCode, body)
		}
		own(float64(100 + 10*i))
	}
	for _, b := range tc.backends {
		if got := b.solver.calls.Load(); got != want[b.addr] {
			t.Fatalf("backend %s solved %d configs, ring assigns it %d of 21", b.addr, got, want[b.addr])
		}
	}
}

func TestCoordinatorEvaluateValidationIsDefinitive(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": -10}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config returned %d: %s", resp.StatusCode, body)
	}
	if got := tc.coord.m.failovers.Value(); got != 0 {
		t.Fatalf("a 400 triggered %d failovers; 4xx answers are definitive", got)
	}
}

func TestCoordinatorFailoverOnDeadShard(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 300
	victim := tc.backendFor(t, cfg)
	victim.srv.Close() // transport errors, but the ring still lists it alive

	resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate with dead primary: %d: %s", resp.StatusCode, body)
	}
	if got := tc.coord.m.failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if victim.solver.calls.Load() != 0 {
		t.Fatal("closed backend somehow solved")
	}
}

func TestCoordinatorHedgesSlowShard(t *testing.T) {
	tc := newTestCluster(t, 3, func(o *Options) { o.HedgeMin = 20 * time.Millisecond })
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 420
	slow := tc.backendFor(t, cfg)
	slow.solver.delay = 2 * time.Second // far past the hedge delay

	start := time.Now()
	resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 420}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged evaluate: %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("response took %v — the hedge did not short-circuit the slow shard", elapsed)
	}
	if got := tc.coord.m.hedges.Value(); got != 1 {
		t.Fatalf("hedges = %d, want 1", got)
	}
	if got := tc.coord.m.hedgeWins.Value(); got != 1 {
		t.Fatalf("hedge wins = %d, want 1", got)
	}
}

func TestCoordinatorSweepKeepsChainsWhole(t *testing.T) {
	tc := newTestCluster(t, 3, func(o *Options) { o.HealthInterval = 50 * time.Millisecond })
	tc.startRun(t)

	// 2 flows x 2 inlets x 2 loads = 8 points in 2 chains of 4: the
	// inlet axis rides inside each flow's chain.
	resp, body := postJSON(t, tc.srv.URL+"/v1/sweep",
		`{"flows_ml_min": [100, 300], "inlet_temps_c": [27, 37], "chip_loads": [0.4, 0.8]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID  string `json:"job_id"`
		Total  int    `json:"total"`
		Chains int    `json:"chains"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Total != 8 || accepted.Chains != 2 {
		t.Fatalf("accept body %+v, want total 8 in 2 chains", accepted)
	}

	view := tc.waitJob(t, accepted.JobID, 10*time.Second)
	if view.State != sim.JobDone || view.Completed != 8 {
		t.Fatalf("job finished %s with %d/%d", view.State, view.Completed, view.Total)
	}

	// Results must cover global indices 0..7 in grid order.
	spec := sim.SweepSpec{
		FlowsMLMin:  []float64{100, 300},
		InletTempsC: []float64{27, 37},
		ChipLoads:   []float64{0.4, 0.8},
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Results) != len(grid) {
		t.Fatalf("%d results for %d grid points", len(view.Results), len(grid))
	}
	for i, res := range view.Results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		if res.Config.CanonicalKey() != grid[i].CanonicalKey() {
			t.Fatalf("result %d solved %+v, grid point is %+v", i, res.Config, grid[i])
		}
		if res.Report == nil {
			t.Fatalf("result %d has no report", i)
		}
	}

	// Chain affinity: no chain key may appear on two shards.
	seen := map[string]string{}
	for _, b := range tc.backends {
		for key := range b.solver.chainKeys() {
			if other, dup := seen[key]; dup {
				t.Fatalf("chain %s split across %s and %s", key, other, b.addr)
			}
			seen[key] = b.addr
		}
	}
	if len(seen) != 2 {
		t.Fatalf("expected 2 chains across the fleet, saw %d: %v", len(seen), seen)
	}
}

func TestCoordinatorQuota429(t *testing.T) {
	tc := newTestCluster(t, 2, func(o *Options) {
		o.QuotaRPS = 0.001 // effectively no refill within the test
		o.QuotaBurst = 2
	})
	client := &http.Client{}
	do := func() (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, tc.srv.URL+"/v1/evaluate",
			strings.NewReader(`{"flow_ml_min": 300}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", "hammer")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}
	for i := 0; i < 2; i++ {
		resp, body := do()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := do()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past burst: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var eb struct {
		Error     string `json:"error"`
		Retryable bool   `json:"retryable"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if !eb.Retryable || !strings.Contains(eb.Error, "quota") {
		t.Fatalf("429 body %+v, want retryable quota error", eb)
	}
	if got := tc.coord.m.quotaRejected.Value(); got != 1 {
		t.Fatalf("quota_rejected = %d, want 1", got)
	}

	// A different client is not throttled by hammer's bucket.
	resp2, body2 := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unthrottled client: %d: %s", resp2.StatusCode, body2)
	}
}

func TestCoordinatorStatsMergesFleet(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate",
			fmt.Sprintf(`{"flow_ml_min": %d}`, 200+50*i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate: %d: %s", resp.StatusCode, body)
		}
	}
	var stats struct {
		Cluster struct {
			Backends int    `json:"backends"`
			Alive    int    `json:"alive"`
			Solves   uint64 `json:"solves"`
		} `json:"cluster"`
		Backends []struct {
			Addr  string     `json:"addr"`
			Alive bool       `json:"alive"`
			Stats *sim.Stats `json:"stats"`
		} `json:"backends"`
	}
	getJSON(t, tc.srv.URL+"/v1/stats", &stats)
	if stats.Cluster.Backends != 2 || stats.Cluster.Alive != 2 {
		t.Fatalf("cluster counts %+v, want 2/2", stats.Cluster)
	}
	if stats.Cluster.Solves != 4 {
		t.Fatalf("aggregated solves = %d, want 4", stats.Cluster.Solves)
	}
	if len(stats.Backends) != 2 {
		t.Fatalf("%d backend entries", len(stats.Backends))
	}
	for _, b := range stats.Backends {
		if !b.Alive || b.Stats == nil {
			t.Fatalf("backend entry %+v, want alive with stats", b)
		}
	}
}

// submitSlowSweep posts a 4-point sweep in 2 chains (flows 100 and
// 300) after slowing the shard that owns chain 0, so that chain is
// still running when the test kills its shard. It returns the job id
// and the slowed shard.
func (tc *testCluster) submitSlowSweep(t *testing.T) (string, *testBackend) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 100
	addr, ok := tc.coord.ring.lookup(cfg.ChainKey())
	if !ok {
		t.Fatal("no alive backends in ring")
	}
	var victim *testBackend
	for _, b := range tc.backends {
		if b.addr == addr {
			victim = b
		}
	}
	victim.solver.delay = 200 * time.Millisecond
	resp, body := postJSON(t, tc.srv.URL+"/v1/sweep",
		`{"flows_ml_min": [100, 300], "chip_loads": [0.4, 0.8]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	return accepted.JobID, victim
}

// checkSweepResults asserts a finished 4-point sweep from
// submitSlowSweep: every point done, in grid order, with a report.
func checkSweepResults(t *testing.T, view sim.JobView) {
	t.Helper()
	if view.State != sim.JobDone || view.Completed != 4 {
		t.Fatalf("job finished %s with %d/4", view.State, view.Completed)
	}
	grid, err := sim.SweepSpec{FlowsMLMin: []float64{100, 300}, ChipLoads: []float64{0.4, 0.8}}.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Results) != len(grid) {
		t.Fatalf("%d results for %d grid points", len(view.Results), len(grid))
	}
	for i, res := range view.Results {
		if res.Index != i || res.Report == nil || res.Error != "" ||
			res.Config.CanonicalKey() != grid[i].CanonicalKey() {
			t.Fatalf("result %d malformed after resubmission: %+v", i, res)
		}
	}
}

// waitJobsIdle polls the coordinator's /v1/stats, never the job
// itself, until no sweep is active and at least one chain has been
// resubmitted.
func (tc *testCluster) waitJobsIdle(t *testing.T, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var stats struct {
			Cluster struct {
				JobsActive     int    `json:"jobs_active"`
				ChainResubmits uint64 `json:"chain_resubmits"`
			} `json:"cluster"`
		}
		getJSON(t, tc.srv.URL+"/v1/stats", &stats)
		if stats.Cluster.JobsActive == 0 && stats.Cluster.ChainResubmits >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("unpolled sweep never finished: cluster stats %+v", stats.Cluster)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorSweepResubmitsLostChains kills a shard while its chain
// is still running and never polls the job: the coordinator's own loop
// must notice the dead shard, resubmit its chain through the ring (now
// routing around the death) and finish the job, which shows in
// /v1/stats as jobs_active falling to 0. Only then does one GET read
// the finished result, every point accounted for.
func TestCoordinatorSweepResubmitsLostChains(t *testing.T) {
	tc := newTestCluster(t, 3, func(o *Options) { o.HealthInterval = 50 * time.Millisecond })
	tc.startRun(t)
	id, victim := tc.submitSlowSweep(t)
	victim.srv.Close()

	tc.waitJobsIdle(t, 10*time.Second)
	var view sim.JobView
	getJSON(t, tc.srv.URL+"/v1/jobs/"+id, &view)
	checkSweepResults(t, view)
}

// TestCoordinatorResubmitToStalledShard kills the shard running a chain
// while the shard the ring fails over to hangs on its first POST
// /v1/sweep. The resubmit must give up after one health interval
// instead of wedging Run: health passes go on, the next sweep pass
// resubmits again, and the job finishes.
func TestCoordinatorResubmitToStalledShard(t *testing.T) {
	tc := newTestCluster(t, 3, func(o *Options) { o.HealthInterval = 100 * time.Millisecond })
	id, victim := tc.submitSlowSweep(t)
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 100
	heir, ok := tc.coord.ring.next(cfg.ChainKey(), victim.addr)
	if !ok {
		t.Fatal("no failover shard in ring")
	}
	for _, b := range tc.backends {
		if b.addr == heir {
			b.stallSweeps.Store(1)
			t.Cleanup(func() {
				if got := b.stalledSweeps.Load(); got != 1 {
					t.Errorf("failover shard stalled %d resubmits, want 1", got)
				}
			})
		}
	}
	victim.srv.Close()
	tc.startRun(t)

	tc.waitJobsIdle(t, 10*time.Second)
	var view sim.JobView
	getJSON(t, tc.srv.URL+"/v1/jobs/"+id, &view)
	checkSweepResults(t, view)
}

// TestCoordinatorJobShowsFailedResubmit loses the only shard: no
// resubmit can succeed, so the job stays running and its GET names why.
func TestCoordinatorJobShowsFailedResubmit(t *testing.T) {
	tc := newTestCluster(t, 1, func(o *Options) { o.HealthInterval = 50 * time.Millisecond })
	tc.startRun(t)
	tc.backends[0].solver.delay = 2 * time.Second
	resp, body := postJSON(t, tc.srv.URL+"/v1/sweep", `{"chip_loads": [0.4, 0.8]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	tc.backends[0].srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		var view struct {
			State sim.JobState `json:"state"`
			Error string       `json:"error"`
		}
		getJSON(t, tc.srv.URL+"/v1/jobs/"+accepted.JobID, &view)
		if view.Error != "" {
			if view.State != sim.JobRunning || !strings.Contains(view.Error, "no alive backends") {
				t.Fatalf("job after losing every shard: %+v", view)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("failed resubmit never surfaced: %+v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorJobReadIgnoresStalledShard pins that GET /v1/jobs/{id}
// is a read of recorded state: while the sweep pass sits in a poll the
// shard never answers, the client's GET still answers at once.
func TestCoordinatorJobReadIgnoresStalledShard(t *testing.T) {
	e := sim.New(sim.Options{Workers: 1, Solver: (&fakeSolver{}).solve})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	polled := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.Handle("/", sim.NewHandler(e))
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		select {
		case polled <- struct{}{}:
		default:
		}
		<-r.Context().Done() // stall until the poller gives up
	})
	backend := httptest.NewServer(mux)
	t.Cleanup(backend.Close)

	coord, err := NewCoordinator(Options{
		Backends:         []string{strings.TrimPrefix(backend.URL, "http://")},
		HealthInterval:   300 * time.Millisecond,
		SnapshotInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	tc := &testCluster{coord: coord, srv: front}
	tc.startRun(t)

	resp, body := postJSON(t, front.URL+"/v1/sweep", `{"chip_loads": [0.4, 0.8]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	sawPoll := false
	select {
	case <-polled:
		sawPoll = true
	case <-time.After(5 * time.Second):
		// Checked after the GET, which must not reach the shard either way.
	}

	client := &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	getResp, err := client.Get(front.URL + "/v1/jobs/" + accepted.JobID)
	if err != nil {
		t.Fatalf("GET during a stalled poll: %v after %v", err, time.Since(start))
	}
	var view sim.JobView
	if err := json.NewDecoder(getResp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if err := getResp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusOK || view.State != sim.JobRunning || view.Total != 2 {
		t.Fatalf("GET during a stalled poll: %d %+v, want 200 running/2", getResp.StatusCode, view)
	}
	if !sawPoll {
		t.Fatal("the sweep pass never polled the shard")
	}
}

// TestCoordinatorWarmRejoin exercises the full death-and-rejoin cycle
// in-process: warm a shard, snapshot it, kill it, watch the health loop
// evict it, bring a cold replacement up on the same address, and verify
// the coordinator hands it the snapshot so the replacement answers the
// old working set without solving.
func TestCoordinatorWarmRejoin(t *testing.T) {
	tc := newTestCluster(t, 3, func(o *Options) {
		o.HealthInterval = 50 * time.Millisecond
		o.SnapshotInterval = -1 // snapshots pulled manually below
	})
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 300
	victim := tc.backendFor(t, cfg)

	// Warm the victim through the coordinator, then snapshot the fleet.
	resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming evaluate: %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tc.coord.snapshotPass(ctx)
	if got := tc.coord.m.snapshotPulls.Value(); got != 3 {
		t.Fatalf("snapshot pulls = %d, want 3", got)
	}

	// Kill the victim and run the health loop until it is evicted.
	victimAddr := victim.addr
	victim.srv.Close()
	runCtx, stopRun := context.WithCancel(ctx)
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		tc.coord.Run(runCtx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for tc.coord.ring.isAlive(victimAddr) {
		if time.Now().After(deadline) {
			t.Fatal("health loop never evicted the dead shard")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// While the shard is down, its keys are served by the rest of the
	// fleet.
	resp, body = postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate during outage: %d: %s", resp.StatusCode, body)
	}

	// Resurrect a cold engine on the same address.
	l, err := net.Listen("tcp", victimAddr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", victimAddr, err)
	}
	freshSolver := &fakeSolver{}
	fresh := sim.New(sim.Options{Workers: 2, Solver: freshSolver.solve})
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := fresh.Shutdown(sctx); err != nil {
			t.Errorf("fresh engine shutdown: %v", err)
		}
	})
	freshSrv := &http.Server{Handler: sim.NewHandler(fresh)}
	go func() {
		if err := freshSrv.Serve(l); err != http.ErrServerClosed {
			t.Errorf("fresh backend: %v", err)
		}
	}()
	t.Cleanup(func() { freshSrv.Close() })

	// The health loop must readmit it — warm.
	deadline = time.Now().Add(5 * time.Second)
	for !tc.coord.ring.isAlive(victimAddr) {
		if time.Now().After(deadline) {
			t.Fatal("health loop never readmitted the resurrected shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopRun()
	<-runDone
	if got := tc.coord.m.snapshotRestores.Value(); got != 1 {
		t.Fatalf("snapshot restores = %d, want 1", got)
	}

	// The resurrected shard answers its old working set from the
	// restored cache: no solver calls.
	resp, body = postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate after rejoin: %d: %s", resp.StatusCode, body)
	}
	if n := freshSolver.calls.Load(); n != 0 {
		t.Fatalf("resurrected shard solved %d times, want 0 (warm cache)", n)
	}
}

// rejoinFixture warms the shard owning a config, pulls the fleet's
// snapshots and marks that shard dead in the ring (it still answers
// probes), so the next health pass drives its rejoin.
func rejoinFixture(t *testing.T) (*testCluster, *testBackend) {
	t.Helper()
	tc := newTestCluster(t, 2, func(o *Options) {
		o.SnapshotInterval = 200 * time.Millisecond // bounds each pull and push; passes run manually
	})
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 300
	victim := tc.backendFor(t, cfg)
	resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming evaluate: %d: %s", resp.StatusCode, body)
	}
	tc.coord.snapshotPass(context.Background())
	if got := tc.coord.m.snapshotPulls.Value(); got != 2 {
		t.Fatalf("snapshot pulls = %d, want 2", got)
	}
	tc.coord.ring.setAlive(victim.addr, false)
	tc.coord.m.backendUp[victim.addr].Set(0)
	return tc, victim
}

// TestCoordinatorRejoinRetriesStalledPush: a snapshot push that stalls
// past its bound keeps the shard out of the ring, and the next health
// pass retries it and readmits the shard warm.
func TestCoordinatorRejoinRetriesStalledPush(t *testing.T) {
	tc, victim := rejoinFixture(t)
	victim.stallPuts.Store(1)
	h := newHealthState(2)
	tc.coord.healthPass(context.Background(), h)
	if victim.stalledPuts.Load() != 1 {
		t.Fatalf("stalled puts = %d, want 1", victim.stalledPuts.Load())
	}
	if tc.coord.ring.isAlive(victim.addr) {
		t.Fatal("shard readmitted after its snapshot push stalled")
	}
	tc.coord.healthPass(context.Background(), h)
	if !tc.coord.ring.isAlive(victim.addr) {
		t.Fatal("shard not readmitted after the retried push")
	}
	if got := tc.coord.m.snapshotRestores.Value(); got != 1 {
		t.Fatalf("snapshot restores = %d, want 1", got)
	}
	if got := tc.coord.m.coldRejoins.Value(); got != 0 {
		t.Fatalf("cold rejoins = %d, want 0", got)
	}
}

// TestCoordinatorRejoinColdAfterFailedPushes: a shard that refuses
// every snapshot push is readmitted cold after healthFailures
// consecutive failures, and the cold rejoin is counted.
func TestCoordinatorRejoinColdAfterFailedPushes(t *testing.T) {
	tc, victim := rejoinFixture(t)
	victim.failPuts.Store(true)
	h := newHealthState(2)
	tc.coord.healthPass(context.Background(), h)
	if tc.coord.ring.isAlive(victim.addr) {
		t.Fatal("shard readmitted after one failed push")
	}
	tc.coord.healthPass(context.Background(), h)
	if !tc.coord.ring.isAlive(victim.addr) {
		t.Fatal("shard still out after healthFailures failed pushes")
	}
	if got := tc.coord.m.coldRejoins.Value(); got != 1 {
		t.Fatalf("cold rejoins = %d, want 1", got)
	}
	if got := tc.coord.m.snapshotRestores.Value(); got != 0 {
		t.Fatalf("snapshot restores = %d, want 0", got)
	}
}
