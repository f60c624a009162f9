package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"bright/internal/core"
	"bright/internal/sim"
)

// chainAssign is one warm-start chain of a partitioned sweep: a
// contiguous run of grid points sharing a hydrodynamic condition
// (core.Config.ChainKey), placed whole on a single shard so the shard's
// batched chain solver keeps its neighbor warm starts. start/count
// locate the chain in the client-visible global grid. key, spec, start
// and count never change; the placement and progress fields below them
// are guarded by the owning clusterJob's mu once the job is registered.
type chainAssign struct {
	key   string
	spec  sim.SweepSpec
	start int
	count int

	backend string
	jobID   string
	view    sim.JobView // last observed, indices still chain-local
	final   bool
	lost    string // why the last resubmit failed; "" once placed
}

// place records a (re)submission of the chain and resets its progress.
func (ch *chainAssign) place(addr, jobID string) {
	ch.backend, ch.jobID = addr, jobID
	ch.view = sim.JobView{State: sim.JobRunning, Total: ch.count}
	ch.final = false
	ch.lost = ""
}

// partitionSweep splits a validated spec into its chains, mirroring the
// row-major nesting of sim.SweepSpec.Grid (flow outermost, load
// innermost): each (flow, inlet) pair is one chain carrying the full
// voltage x load sub-grid.
func partitionSweep(spec sim.SweepSpec) []*chainAssign {
	base := core.DefaultConfig()
	if spec.Base != nil {
		base = *spec.Base
	}
	axis := func(vals []float64, fallback float64) []float64 {
		if len(vals) == 0 {
			return []float64{fallback}
		}
		return vals
	}
	flows := axis(spec.FlowsMLMin, base.FlowMLMin)
	inlets := axis(spec.InletTempsC, base.InletTempC)
	chainLen := len(axis(spec.SupplyVoltages, base.SupplyVoltage)) * len(axis(spec.ChipLoads, base.ChipLoad))

	chains := make([]*chainAssign, 0, len(flows)*len(inlets))
	start := 0
	for _, f := range flows {
		for _, t := range inlets {
			cfg := base
			cfg.FlowMLMin, cfg.InletTempC = f, t
			chains = append(chains, &chainAssign{
				key: cfg.ChainKey(),
				spec: sim.SweepSpec{
					Base:           spec.Base,
					FlowsMLMin:     []float64{f},
					InletTempsC:    []float64{t},
					SupplyVoltages: spec.SupplyVoltages,
					ChipLoads:      spec.ChipLoads,
				},
				start: start,
				count: chainLen,
			})
			start += chainLen
		}
	}
	return chains
}

// clusterJob is one client-visible sweep spanning shards.
type clusterJob struct {
	id      string
	total   int
	started time.Time

	mu     sync.Mutex
	chains []*chainAssign
	done   bool
}

// clusterJobs is the coordinator's job registry.
type clusterJobs struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*clusterJob
}

func newClusterJobs() *clusterJobs {
	return &clusterJobs{jobs: make(map[string]*clusterJob)}
}

func (r *clusterJobs) add(j *clusterJob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	j.id = fmt.Sprintf("cjob-%06d", r.seq)
	r.jobs[j.id] = j
}

func (r *clusterJobs) get(id string) (*clusterJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// unfinished lists the jobs the sweep pass still has to advance.
func (r *clusterJobs) unfinished() []*clusterJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*clusterJob
	for _, j := range r.jobs {
		j.mu.Lock()
		if !j.done {
			out = append(out, j)
		}
		j.mu.Unlock()
	}
	return out
}

// submitChain routes a chain by its chain key and submits it, failing
// over once to the next alive shard when the owner refuses. It returns
// the placement without recording it: the caller does, under the job's
// lock once the job is registered.
func (c *Coordinator) submitChain(ctx context.Context, ch *chainAssign) (addr, jobID string, err error) {
	addr, ok := c.ring.lookup(ch.key)
	if !ok {
		return "", "", fmt.Errorf("cluster: no alive backends")
	}
	if jobID, err = c.submitChainTo(ctx, addr, ch); err != nil {
		next, haveNext := c.ring.next(ch.key, addr)
		if !haveNext {
			return "", "", err
		}
		c.m.failovers.Inc()
		addr = next
		jobID, err = c.submitChainTo(ctx, addr, ch)
	}
	return addr, jobID, err
}

// submitChainTo submits a chain's sub-sweep on a specific shard and
// returns the shard-local job id.
func (c *Coordinator) submitChainTo(ctx context.Context, addr string, ch *chainAssign) (string, error) {
	jobID, _, err := c.clients[addr].submitSweep(ctx, ch.spec)
	if err != nil {
		return "", err
	}
	c.m.routed[addr].Inc()
	return jobID, nil
}

// handleSweep partitions the sweep into whole chains, one sub-sweep per
// chain on its owning shard, and answers 202 with a cluster job id. The
// coordinator's sweep pass advances the job from then on; handleJob
// reads what it recorded.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !c.admit(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxProxyBody)
	var spec sim.SweepSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding sweep spec: %w", err))
		return
	}
	grid, err := spec.Grid()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	job := &clusterJob{total: len(grid), started: time.Now(), chains: partitionSweep(spec)}
	for _, ch := range job.chains {
		addr, jobID, err := c.submitChain(r.Context(), ch)
		if err != nil {
			// Chains already submitted keep running on their shards;
			// their points land in those shards' caches, so a retry of
			// this sweep is cheap.
			writeError(w, r, http.StatusBadGateway, err)
			return
		}
		// The job is not registered yet, so nothing else sees the chain.
		ch.place(addr, jobID)
	}
	c.jobs.add(job)
	writeJSON(w, r, http.StatusAccepted, map[string]any{
		"job_id": job.id,
		"total":  job.total,
		"chains": len(job.chains),
	})
}

// jobView is the coordinator's GET /v1/jobs/{id} body: the merged
// sim.JobView plus, while a chain has lost its shard and no alive shard
// has taken it back, why the last resubmit failed.
type jobView struct {
	sim.JobView
	Error string `json:"error,omitempty"`
}

// handleJob answers the merged view the sweep pass last recorded. It
// does no backend I/O, so a stalled shard cannot hold up the read.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := c.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	job.mu.Lock()
	view := job.mergedViewLocked()
	job.mu.Unlock()
	writeJSON(w, r, http.StatusOK, view)
}

// sweepPass advances every unfinished sweep once; Run calls it after
// each health pass. Every backend call is bounded by HealthInterval,
// and a shard that fails one is skipped for the rest of the pass, so
// one stalled shard costs the pass at most one timeout however many
// jobs have chains on it.
func (c *Coordinator) sweepPass(ctx context.Context) {
	stalled := make(map[string]bool)
	for _, job := range c.jobs.unfinished() {
		c.advanceJob(ctx, job, stalled)
	}
}

// advanceJob polls each unfinished chain's shard and records the view.
// A chain whose shard is dead, or answers 404 because it restarted and
// forgot the sub-job, is resubmitted through the ring (which routes
// around the death); the points it had already solved re-resolve as
// cache hits on the new owner once the snapshot hand-off has warmed it.
// A resubmit that fails is recorded on the chain for GET to show and
// retried next pass. The job is done once every chain is final. No
// backend I/O runs under job.mu: placements are copied out first and
// outcomes written back after. stalled holds the shards that failed a
// call earlier in the pass; chains on them, or routed to them, wait.
func (c *Coordinator) advanceJob(ctx context.Context, job *clusterJob, stalled map[string]bool) {
	type placement struct {
		ch             *chainAssign
		backend, jobID string
	}
	var open []placement
	job.mu.Lock()
	for _, ch := range job.chains {
		if !ch.final {
			open = append(open, placement{ch, ch.backend, ch.jobID})
		}
	}
	job.mu.Unlock()

	for _, p := range open {
		if stalled[p.backend] {
			continue
		}
		if c.ring.isAlive(p.backend) {
			view, found, err := c.pollChain(ctx, p.backend, p.jobID)
			if err != nil {
				// Transient failure against a live shard: keep the last
				// view; the next pass retries, and the health loop
				// declares the shard dead if it stays unreachable.
				stalled[p.backend] = true
				continue
			}
			if found {
				job.mu.Lock()
				p.ch.view = view
				p.ch.final = view.State != sim.JobRunning
				job.mu.Unlock()
				continue
			}
			// 404: the shard restarted and forgot the sub-job.
		}
		owner, _ := c.ring.lookup(p.ch.key)
		if stalled[owner] {
			continue
		}
		addr, jobID, err := c.resubmitChain(ctx, p.ch)
		if err != nil {
			// The route through owner just failed, maybe after a full
			// timeout; chains routed there wait for the next pass.
			stalled[owner] = true
			lost := fmt.Sprintf("resubmitting chain at %d after losing %s: %v", p.ch.start, p.backend, err)
			log.Printf("cluster: %s: %s", job.id, lost)
			job.mu.Lock()
			p.ch.lost = lost
			job.mu.Unlock()
			continue
		}
		c.m.chainResubmits.Inc()
		job.mu.Lock()
		p.ch.place(addr, jobID)
		job.mu.Unlock()
	}

	job.mu.Lock()
	defer job.mu.Unlock()
	for _, ch := range job.chains {
		if !ch.final {
			return
		}
	}
	job.done = true
}

// resubmitChain is submitChain bounded by the health interval, so a
// shard that accepts the connection and never answers cannot hold up
// Run's loop.
func (c *Coordinator) resubmitChain(ctx context.Context, ch *chainAssign) (addr, jobID string, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.HealthInterval)
	defer cancel()
	return c.submitChain(ctx, ch)
}

// pollChain fetches one sub-job's view, bounded by the health interval.
// found is false when the shard answered but no longer knows the job
// (it restarted).
func (c *Coordinator) pollChain(ctx context.Context, addr, jobID string) (sim.JobView, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.HealthInterval)
	defer cancel()
	pr, err := c.clients[addr].roundTrip(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil)
	if err != nil {
		return sim.JobView{}, false, err
	}
	if pr.status == http.StatusNotFound {
		return sim.JobView{}, false, nil
	}
	if pr.status != http.StatusOK {
		return sim.JobView{}, false, fmt.Errorf("cluster: polling job %s on %s: status %d: %s",
			jobID, addr, pr.status, truncate(pr.body))
	}
	var view sim.JobView
	if err := json.Unmarshal(pr.body, &view); err != nil {
		return sim.JobView{}, false, fmt.Errorf("cluster: decoding job view from %s: %w", addr, err)
	}
	return view, true, nil
}

// mergedViewLocked folds the chain sub-views into the global JobView:
// indices shifted to grid positions, counters summed, state the
// conjunction of the chains' states, error the first chain's failed
// resubmit. Caller holds job.mu.
func (j *clusterJob) mergedViewLocked() jobView {
	out := sim.JobView{
		ID:        j.id,
		State:     sim.JobDone,
		Total:     j.total,
		ElapsedMS: float64(time.Since(j.started).Milliseconds()),
	}
	lost := ""
	allFinal := true
	anyFailed, anyCanceled := false, false
	for _, ch := range j.chains {
		if !ch.final {
			allFinal = false
		}
		if lost == "" {
			lost = ch.lost
		}
		switch ch.view.State {
		case sim.JobFailed:
			anyFailed = true
		case sim.JobCanceled:
			anyCanceled = true
		}
		out.Completed += ch.view.Completed
		out.Failed += ch.view.Failed
		for _, res := range ch.view.Results {
			res.Index += ch.start
			out.Results = append(out.Results, res)
		}
	}
	switch {
	case !allFinal:
		out.State = sim.JobRunning
	case anyFailed:
		out.State = sim.JobFailed
	case anyCanceled:
		out.State = sim.JobCanceled
	}
	sort.Slice(out.Results, func(a, b int) bool { return out.Results[a].Index < out.Results[b].Index })
	return jobView{JobView: out, Error: lost}
}
