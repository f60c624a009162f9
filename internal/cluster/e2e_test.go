package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"bright/internal/core"
	"bright/internal/sim"
)

// TestClusterEndToEnd boots real brightd processes — three backends and a
// coordinator — over localhost and drives the full serving story from the
// outside: consistent routing, hedging, quotas, sweep chain partitioning,
// a SIGKILLed shard mid-run, and the warm cache hand-off when it comes
// back. Every solve here is a real co-simulation (about 0.1 s on 2
// vCPU), so the traffic mix is chosen to keep the distinct-solve count
// small.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e test skipped in -short mode")
	}

	bin := buildBrightd(t)
	logDir := t.TempDir()

	// Pick ports up front so the victim can be restarted on its old
	// address, exactly as a supervised process would be.
	backendAddrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	coordAddr := freeAddr(t)

	procs := map[string]*exec.Cmd{}
	stopProc := func(name string) {
		cmd, ok := procs[name]
		if !ok || cmd.Process == nil {
			return
		}
		delete(procs, name)
		if err := cmd.Process.Kill(); err != nil {
			t.Logf("kill %s: %v", name, err)
		}
		_ = cmd.Wait() // reap; a killed process always reports an error
	}
	t.Cleanup(func() {
		for name := range procs {
			stopProc(name)
		}
		if t.Failed() {
			dumpLogs(t, logDir)
		}
	})
	startProc := func(name string, args ...string) {
		logf, err := os.OpenFile(filepath.Join(logDir, name+".log"),
			os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		if err := logf.Close(); err != nil {
			t.Logf("closing %s log: %v", name, err)
		}
		procs[name] = cmd
	}
	startBackend := func(i int) {
		startProc(fmt.Sprintf("backend-%d", i),
			"-addr", backendAddrs[i], "-workers", "1", "-cache", "64")
	}

	for i := range backendAddrs {
		startBackend(i)
	}
	for _, addr := range backendAddrs {
		waitHealthy(t, "http://"+addr+"/healthz", 60*time.Second)
	}

	startProc("coordinator",
		"-coordinator", "-backends", strings.Join(backendAddrs, ","),
		"-addr", coordAddr,
		"-health-interval", "200ms",
		"-snapshot-interval", "300ms",
		"-hedge-min", "10ms",
		"-quota-rps", "0.2", "-quota-burst", "10",
		"-request-timeout", "1m")
	coordURL := "http://" + coordAddr
	waitHealthy(t, coordURL+"/healthz", 60*time.Second)

	// Predict routing with the same ring the coordinator builds, so the
	// test can kill the exact shard that owns the pinned configuration.
	ring, err := newRing(backendAddrs)
	if err != nil {
		t.Fatal(err)
	}
	flow := 300.0
	pinned := sim.EvaluateRequest{FlowMLMin: &flow}
	pinnedBody := `{"flow_ml_min": 300}`
	victimAddr, ok := ring.lookup(pinned.Config().CanonicalKey())
	if !ok {
		t.Fatal("ring lookup failed with three alive backends")
	}
	victimIdx := -1
	for i, addr := range backendAddrs {
		if addr == victimAddr {
			victimIdx = i
		}
	}

	// --- Cold evaluate. The first request reaches the coordinator with
	// no proxy latency observed yet, so the hedge delay is the 10ms
	// -hedge-min floor, well below any cold solve (55–120 ms on 2 vCPU):
	// the hedge fires and a second shard warms the same config — that
	// shard is the natural failover target later.
	var coldView sim.ReportView
	postEvaluate(t, coordURL, "", pinnedBody, http.StatusOK, &coldView)
	if coldView.PeakTempC <= coldView.Config.InletTempC {
		t.Fatalf("implausible report: peak %.2fC vs inlet %.2fC",
			coldView.PeakTempC, coldView.Config.InletTempC)
	}
	if got := metricValue(t, coordURL, "bright_cluster_hedges_total"); got < 1 {
		t.Fatalf("hedges_total = %v after a cold solve with a 10ms hedge delay", got)
	}

	// Warm repeat must be served from cache and agree exactly (the
	// solver is deterministic).
	var warmView sim.ReportView
	postEvaluate(t, coordURL, "", pinnedBody, http.StatusOK, &warmView)
	if warmView.PeakTempC != coldView.PeakTempC ||
		warmView.NetElectricalGainW != coldView.NetElectricalGainW ||
		warmView.ArrayPowerW != coldView.ArrayPowerW {
		t.Fatalf("cached evaluate disagrees with cold solve:\ncold %+v\nwarm %+v",
			coldView, warmView)
	}

	// --- Sweep: 2 flows x 2 loads = 4 points in 2 whole chains.
	resp, body := doJSON(t, http.MethodPost, coordURL+"/v1/sweep", "",
		`{"flows_ml_min": [100, 300], "chip_loads": [0.4, 0.8]}`)
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
	if accepted.Total != 4 || accepted.Chains != 2 {
		t.Fatalf("sweep accepted %d points in %d chains, want 4 in 2", accepted.Total, accepted.Chains)
	}
	view := pollJob(t, coordURL, accepted.JobID, 2*time.Minute)
	if view.State != sim.JobDone || view.Completed != 4 {
		t.Fatalf("sweep finished %s with %d/4 points", view.State, view.Completed)
	}
	for i, res := range view.Results {
		if res.Index != i || res.Report == nil || res.Error != "" {
			t.Fatalf("sweep result %d malformed: %+v", i, res)
		}
	}

	// --- Quota: flood one client identity with cheap cached evaluates.
	// The driver traffic above used the host-derived client id, so this
	// bucket starts full. Burst 10 at 0.2 rps cannot absorb 14 hits
	// unless the loop somehow stretches past 20s — slow enough a refill
	// rate that CPU contention (e.g. a parallel race-detected package)
	// cannot flake the assertion, while the handful of driver-identity
	// requests stays comfortably inside its own burst.
	rejected := 0
	var lastRetryAfter string
	for i := 0; i < 14; i++ {
		resp, body := doJSON(t, http.MethodPost, coordURL+"/v1/evaluate", "flood", pinnedBody)
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected++
			lastRetryAfter = resp.Header.Get("Retry-After")
			if !strings.Contains(string(body), "quota") {
				t.Fatalf("429 body does not mention the quota: %s", body)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("14 rapid requests from one client all admitted past burst 10")
	}
	if lastRetryAfter == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if got := metricValue(t, coordURL, "bright_cluster_quota_rejected_total"); got < 1 {
		t.Fatalf("quota_rejected_total = %v after %d rejections", got, rejected)
	}

	// --- Let a full snapshot pass cover the now-warm fleet so the
	// coordinator holds the victim's cache before the murder.
	pullsBefore := metricValue(t, coordURL, "bright_cluster_snapshot_pulls_total")
	waitMetric(t, coordURL, "bright_cluster_snapshot_pulls_total",
		func(v float64) bool { return v >= pullsBefore+3 }, 60*time.Second)

	// --- Kill the shard that owns the pinned config, mid-run.
	stopProc(fmt.Sprintf("backend-%d", victimIdx))
	waitMetric(t, coordURL, "bright_cluster_backends_alive",
		func(v float64) bool { return v == 2 }, 60*time.Second)

	// Service continues during the outage: the pinned config routes (or
	// fails over) to the hedge-warmed shard and is served from cache.
	var outageView sim.ReportView
	postEvaluate(t, coordURL, "", pinnedBody, http.StatusOK, &outageView)
	if outageView.PeakTempC != coldView.PeakTempC {
		t.Fatalf("outage evaluate diverged: %.6f vs %.6f",
			outageView.PeakTempC, coldView.PeakTempC)
	}

	// --- Restart the victim cold on its old address. The coordinator
	// must push the saved snapshot before readmitting it to the ring.
	startBackend(victimIdx)
	waitMetric(t, coordURL, "bright_cluster_snapshot_restores_total",
		func(v float64) bool { return v >= 1 }, 60*time.Second)
	waitMetric(t, coordURL, "bright_cluster_backends_alive",
		func(v float64) bool { return v == 3 }, 60*time.Second)

	victimStats := backendStats(t, "http://"+victimAddr)
	if victimStats.CacheRestored == 0 {
		t.Fatal("restarted shard reports no restored cache entries")
	}
	if victimStats.Solves != 0 {
		t.Fatalf("restarted shard already solved %d configs before any traffic", victimStats.Solves)
	}

	// The pinned config routes back to its readmitted owner and must be
	// a warm hit there: zero post-restart solves, hits > 0.
	var rejoinView sim.ReportView
	postEvaluate(t, coordURL, "", pinnedBody, http.StatusOK, &rejoinView)
	if rejoinView.PeakTempC != coldView.PeakTempC {
		t.Fatalf("post-rejoin evaluate diverged: %.6f vs %.6f",
			rejoinView.PeakTempC, coldView.PeakTempC)
	}
	victimStats = backendStats(t, "http://"+victimAddr)
	if victimStats.Solves != 0 || victimStats.CacheHits == 0 {
		t.Fatalf("rejoined shard not serving from the restored cache: solves=%d hits=%d",
			victimStats.Solves, victimStats.CacheHits)
	}

	// Merged cluster stats see the whole fleet again.
	var merged struct {
		Cluster struct {
			Backends int `json:"backends"`
			Alive    int `json:"alive"`
		} `json:"cluster"`
	}
	getJSONURL(t, coordURL+"/v1/stats", &merged)
	if merged.Cluster.Backends != 3 || merged.Cluster.Alive != 3 {
		t.Fatalf("merged stats report %d/%d alive, want 3/3",
			merged.Cluster.Alive, merged.Cluster.Backends)
	}
}

// TestClusterUnpolledSweepRecovers boots two real brightd processes and
// a coordinator, submits a sweep whose chains all hash onto ONE shard,
// and SIGKILLs that shard once it has solved a point. The client never
// polls the job while it runs: the coordinator's own loop must notice
// the death, resubmit the lost chains to the surviving shard and finish
// the job, which the client sees as jobs_active 0 in /v1/stats. Only
// then does one GET read the job, with every point done.
func TestClusterUnpolledSweepRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e test skipped in -short mode")
	}

	bin := buildBrightd(t)
	logDir := t.TempDir()
	backendAddrs := []string{freeAddr(t), freeAddr(t)}
	coordAddr := freeAddr(t)

	procs := map[string]*exec.Cmd{}
	t.Cleanup(func() {
		for name, cmd := range procs {
			if cmd.Process != nil {
				if err := cmd.Process.Kill(); err != nil {
					t.Logf("kill %s: %v", name, err)
				}
				_ = cmd.Wait()
			}
		}
		if t.Failed() {
			dumpLogs(t, logDir)
		}
	})
	startProc := func(name string, args ...string) {
		logf, err := os.OpenFile(filepath.Join(logDir, name+".log"),
			os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		if err := logf.Close(); err != nil {
			t.Logf("closing %s log: %v", name, err)
		}
		procs[name] = cmd
	}
	backendName := map[string]string{}
	for i, addr := range backendAddrs {
		backendName[addr] = fmt.Sprintf("backend-%d", i)
		startProc(backendName[addr],
			"-addr", addr, "-workers", "1", "-cache", "64")
	}
	for _, addr := range backendAddrs {
		waitHealthy(t, "http://"+addr+"/healthz", 60*time.Second)
	}
	startProc("coordinator",
		"-coordinator", "-backends", strings.Join(backendAddrs, ","),
		"-addr", coordAddr,
		"-health-interval", "200ms",
		"-snapshot-interval", "-1s",
		"-hedge-min", "30s",
		"-request-timeout", "2m")
	coordURL := "http://" + coordAddr
	waitHealthy(t, coordURL+"/healthz", 60*time.Second)

	// Build the same ring the coordinator uses and pick six flows whose
	// chains all hash to one shard: a guaranteed-skewed placement.
	ring, err := newRing(backendAddrs)
	if err != nil {
		t.Fatal(err)
	}
	perShard := map[string][]float64{}
	var loadedAddr string
	for flow := 100.0; flow < 2000; flow += 10 {
		cfg := core.DefaultConfig()
		cfg.FlowMLMin = flow
		addr, ok := ring.lookup(cfg.ChainKey())
		if !ok {
			t.Fatal("ring lookup failed with two alive backends")
		}
		perShard[addr] = append(perShard[addr], flow)
		if len(perShard[addr]) == 6 {
			loadedAddr = addr
			break
		}
	}
	if loadedAddr == "" {
		t.Fatal("no shard accumulated 6 chains from 190 candidate flows")
	}
	flows := perShard[loadedAddr]

	// 6 chains x 2 loads = 12 points, all owned by one shard. Each chain
	// builds its own thermal response (about 0.3s on 2 vCPU) and the
	// shard runs one chain at a time, so after its first solved point
	// the shard still has over a second of work left when it dies.
	flowsJSON, err := json.Marshal(flows)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, http.MethodPost, coordURL+"/v1/sweep", "",
		fmt.Sprintf(`{"flows_ml_min": %s, "chip_loads": [0.4, 0.8]}`, flowsJSON))
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
	if accepted.Total != 12 || accepted.Chains != 6 {
		t.Fatalf("sweep accepted %d points in %d chains, want 12 in 6", accepted.Total, accepted.Chains)
	}

	loadedURL := "http://" + loadedAddr
	deadline := time.Now().Add(2 * time.Minute)
	for backendStats(t, loadedURL).Solves == 0 {
		if time.Now().After(deadline) {
			t.Fatal("loaded shard never solved a point")
		}
		time.Sleep(50 * time.Millisecond)
	}
	loaded := procs[backendName[loadedAddr]]
	if err := loaded.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL loaded shard: %v", err)
	}
	_ = loaded.Wait() // reap; a killed process always reports an error
	delete(procs, backendName[loadedAddr])

	deadline = time.Now().Add(3 * time.Minute)
	for {
		var stats struct {
			Cluster struct {
				JobsActive int `json:"jobs_active"`
			} `json:"cluster"`
		}
		getJSONURL(t, coordURL+"/v1/stats", &stats)
		if stats.Cluster.JobsActive == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unpolled sweep still active 3m after its shard died")
		}
		time.Sleep(200 * time.Millisecond)
	}

	var view sim.JobView
	getJSONURL(t, coordURL+"/v1/jobs/"+accepted.JobID, &view)
	if view.State != sim.JobDone || view.Completed != 12 || view.Failed != 0 {
		t.Fatalf("sweep finished %s with %d/12 points (%d failed)", view.State, view.Completed, view.Failed)
	}
	for i, res := range view.Results {
		if res.Index != i || res.Report == nil || res.Error != "" {
			t.Fatalf("sweep result %d malformed: %+v", i, res)
		}
	}
	if got := metricValue(t, coordURL, "bright_cluster_chain_resubmits_total"); got < 1 {
		t.Fatalf("chain_resubmits_total = %v after the loaded shard died mid-sweep", got)
	}
}

// dumpLogs replays the subprocess logs into the test output on failure.
func dumpLogs(t *testing.T, dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Logf("reading log dir: %v", err)
		return
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Logf("reading %s: %v", e.Name(), err)
			continue
		}
		t.Logf("--- %s ---\n%s", e.Name(), data)
	}
}

// buildBrightd compiles the real daemon binary into a scratch dir.
func buildBrightd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "brightd")
	cmd := exec.Command("go", "build", "-o", bin, "bright/cmd/brightd")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building brightd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a localhost port by binding and releasing it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

func waitHealthy(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			drainClose(t, resp)
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became healthy: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func doJSON(t *testing.T, method, url, clientID, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	drainClose(t, resp)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp, data
}

func postEvaluate(t *testing.T, coordURL, clientID, body string, wantStatus int, out any) {
	t.Helper()
	resp, data := doJSON(t, http.MethodPost, coordURL+"/v1/evaluate", clientID, body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("evaluate: %d (want %d): %s", resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding evaluate response: %v\n%s", err, data)
		}
	}
}

func getJSONURL(t *testing.T, url string, out any) {
	t.Helper()
	resp, data := doJSON(t, http.MethodGet, url, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decoding %s: %v\n%s", url, err, data)
	}
}

func pollJob(t *testing.T, coordURL, id string, timeout time.Duration) sim.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var view sim.JobView
		getJSONURL(t, coordURL+"/v1/jobs/"+id, &view)
		if view.State != sim.JobRunning {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after %v: %+v", id, timeout, view)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func backendStats(t *testing.T, base string) sim.Stats {
	t.Helper()
	var stats sim.Stats
	getJSONURL(t, base+"/v1/stats", &stats)
	return stats
}

// metricValue scrapes one unlabeled metric from the coordinator's
// Prometheus text exposition.
func metricValue(t *testing.T, coordURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(coordURL + "/metrics")
	if err != nil {
		t.Fatalf("scraping metrics: %v", err)
	}
	defer drainClose(t, resp)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
		if err != nil {
			t.Fatalf("parsing %s from %q: %v", name, line, err)
		}
		return v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func waitMetric(t *testing.T, coordURL, name string, pred func(float64) bool, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if v := metricValue(t, coordURL, name); pred(v) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never satisfied predicate (last = %v)",
				name, metricValue(t, coordURL, name))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func drainClose(t *testing.T, resp *http.Response) {
	t.Helper()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Logf("draining response body: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Logf("closing response body: %v", err)
	}
}
