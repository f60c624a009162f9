package sim

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"bright/internal/core"
)

// loadChain builds a synthetic n-point chain: one hydrodynamic
// condition, a voltsEvery-long load run per voltage step (voltsEvery <=
// 0 keeps one voltage throughout).
func loadChain(n, voltsEvery int) []gridPoint {
	pts := make([]gridPoint, n)
	for i := range pts {
		cfg := core.DefaultConfig()
		if voltsEvery > 0 {
			cfg.SupplyVoltage = 0.8 + 0.01*float64(i/voltsEvery)
		}
		cfg.ChipLoad = 0.25 + 0.001*float64(i)
		pts[i] = gridPoint{idx: i, cfg: cfg}
	}
	return pts
}

func TestSegmentChainBounds(t *testing.T) {
	// At or under the bound, and with splitting disabled, chains stay
	// whole.
	for _, tc := range []struct{ n, max int }{{5, 16}, {16, 16}, {100, 0}, {100, -1}} {
		segs := segmentChain(loadChain(tc.n, 4), tc.max)
		if len(segs) != 1 || len(segs[0]) != tc.n {
			t.Fatalf("chain of %d with bound %d split into %d segments", tc.n, tc.max, len(segs))
		}
	}

	// A long chain with voltage steps splits at voltage boundaries once
	// past the bound: 40 points in load runs of 4, bound 6 → splits at
	// the first boundary at or past 6, i.e. every 8 points.
	segs := segmentChain(loadChain(40, 4), 6)
	total := 0
	for _, seg := range segs {
		if len(seg) > 12 { // 2*maxPts force-split ceiling
			t.Fatalf("segment of %d points exceeds the 2x bound", len(seg))
		}
		for i := 1; i < len(seg); i++ {
			if seg[i].idx != seg[i-1].idx+1 {
				t.Fatalf("segment indices not contiguous: %d after %d", seg[i].idx, seg[i-1].idx)
			}
		}
		// Interior points never sit on a voltage boundary unless the
		// force-split fired, which it cannot here (boundary every 4 < 12).
		for i := 1; i < len(seg); i++ {
			if i >= 6 && seg[i].cfg.SupplyVoltage != seg[i-1].cfg.SupplyVoltage {
				t.Fatalf("segment crosses a voltage boundary past the bound at offset %d", i)
			}
		}
		total += len(seg)
	}
	if total != 40 {
		t.Fatalf("segments cover %d points, want 40", total)
	}
	if len(segs) < 4 {
		t.Fatalf("40-point chain with bound 6 produced only %d segments", len(segs))
	}

	// No voltage boundaries at all: the force-split at 2x the bound
	// still bounds every segment.
	for _, seg := range segmentChain(loadChain(40, 0), 6) {
		if len(seg) > 12 {
			t.Fatalf("boundary-free chain produced a %d-point segment, cap is 12", len(seg))
		}
	}
}

// TestSegmentPlanDeterministic pins the schedule-invariance premise: the
// segment plan is a pure function of the chains and the bound, so two
// plans over the same grid are identical — worker count never enters.
func TestSegmentPlanDeterministic(t *testing.T) {
	chains := [][]gridPoint{loadChain(40, 4), loadChain(3, 0), loadChain(17, 5)}
	a := planSegments(chains, 6)
	b := planSegments(chains, 6)
	if len(a) != len(b) {
		t.Fatalf("plan sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].chain != b[i].chain || a[i].seg != b[i].seg || len(a[i].pts) != len(b[i].pts) {
			t.Fatalf("plan entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].pts[0].idx != b[i].pts[0].idx {
			t.Fatalf("plan entry %d starts at different grid points", i)
		}
	}
}

// TestSegmentSchedulerDealAndSteal drives the scheduler directly: LPT
// dealing balances queued points, a worker drains its own queue in
// order, and an idle worker steals from the most-loaded peer's tail.
func TestSegmentSchedulerDealAndSteal(t *testing.T) {
	chains := [][]gridPoint{loadChain(32, 4), loadChain(2, 0), loadChain(2, 0)}
	segs := planSegments(chains, 4)
	s := newSegmentScheduler(segs, 2)

	// Worker 0 claims everything: first its own deque (not stolen), then
	// worker 1's via steals. Own-queue claims must strictly precede the
	// steals, every segment is served exactly once, and at least one
	// steal proves the LPT deal actually split the plan across workers.
	claimed := make(map[*sweepSegment]bool)
	steals, stealing := 0, false
	for {
		seg, stolen := s.next(0)
		if seg == nil {
			break
		}
		if claimed[seg] {
			t.Fatal("segment served twice")
		}
		claimed[seg] = true
		if stolen {
			stealing = true
			steals++
		} else if stealing {
			t.Fatal("own-queue claim after a steal — the deque order is broken")
		}
	}
	if len(claimed) != len(segs) {
		t.Fatalf("served %d segments, want %d", len(claimed), len(segs))
	}
	if steals == 0 {
		t.Fatal("no steals observed; LPT should have dealt segments to both workers")
	}
	if seg, _ := s.next(1); seg != nil {
		t.Fatal("scheduler served a segment after the plan was fully claimed")
	}
}

// TestSweepSkewedChainSpeedup is the fairness acceptance test: a grid
// whose chain structure leaves workers idle (one long chain) must
// finish measurably faster with segment scheduling than with
// whole-chain scheduling (segment < 0, the pre-scheduler
// behavior). Solves sleep a fixed 5ms, so the ratio measures scheduling
// alone, not solver throughput — valid even on a single-core box.
func TestSweepSkewedChainSpeedup(t *testing.T) {
	const points = 32
	const delay = 5 * time.Millisecond
	loads := make([]float64, points)
	for i := range loads {
		loads[i] = 0.25 + 0.02*float64(i)
	}
	sleepy := func(ctx context.Context, cfg core.Config) (*core.Report, error) {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fakeReport(cfg), nil
	}
	run := func(segment int) time.Duration {
		e := newTestEngine(t, Options{Workers: 4, CacheSize: -1, segment: segment, Solver: sleepy})
		start := time.Now()
		job, err := e.SubmitSweep(context.Background(), SweepSpec{ChipLoads: loads})
		if err != nil {
			t.Fatal(err)
		}
		if v := waitJob(t, job, time.Minute); v.State != JobDone || v.Completed != points {
			t.Fatalf("state=%s completed=%d, want done/%d", v.State, v.Completed, points)
		}
		return time.Since(start)
	}

	sequential := run(-1) // whole-chain scheduling: one worker walks all 32 points
	segmented := run(4)   // 8 segments across 4 workers

	t.Logf("skewed sweep: whole-chain=%v segmented=%v", sequential, segmented)
	// Ideal is 4x; require 1.5x to stay robust against scheduler jitter
	// on a loaded box.
	if float64(sequential)/float64(segmented) < 1.5 {
		t.Fatalf("segmented sweep took %v vs %v whole-chain — under the 1.5x fairness bound", segmented, sequential)
	}
}

// TestSweepSegmentAccounting pins the warm/cold arithmetic under
// segmentation: every executed segment contributes exactly one cold
// point (its head re-warms a fresh solver stack) and len-1 warm points,
// and the segment/chain counters match the plan exactly.
func TestSweepSegmentAccounting(t *testing.T) {
	s := &countingSolver{}
	// 2 chains of 10 load points, bound 4, no voltage boundaries: each
	// chain force-splits at 8 → segments of 8+2 → 4 segments total.
	e := newTestEngine(t, Options{Workers: 3, CacheSize: -1, segment: 4, Solver: s.solve})
	loads := make([]float64, 10)
	for i := range loads {
		loads[i] = 0.25 + 0.05*float64(i)
	}
	job, err := e.SubmitSweep(context.Background(), SweepSpec{
		FlowsMLMin: []float64{100, 200},
		ChipLoads:  loads,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, job, 30*time.Second); v.State != JobDone || v.Completed != 20 {
		t.Fatalf("state=%s completed=%d, want done/20", v.State, v.Completed)
	}
	st := e.Stats()
	if st.SweepChains != 2 || st.SweepSegments != 4 {
		t.Fatalf("chains=%d segments=%d, want 2/4", st.SweepChains, st.SweepSegments)
	}
	if st.SweepPointsCold != 4 || st.SweepPointsWarm != 16 {
		t.Fatalf("cold=%d warm=%d, want exactly 4/16 (one cold head per segment)", st.SweepPointsCold, st.SweepPointsWarm)
	}
	if s.calls.Load() != 20 {
		t.Fatalf("solver ran %d times, want 20 (cache disabled)", s.calls.Load())
	}
}

// TestSweepStealObserved forces runtime skew the LPT deal cannot see:
// one segment's points are 30x slower than the rest, so the workers
// that finish early must steal the slow worker's queued segment, and
// the steal shows up in the stats.
func TestSweepStealObserved(t *testing.T) {
	const slowLoad = 0.25 // the first segment's loads are all < 0.3
	skewed := func(ctx context.Context, cfg core.Config) (*core.Report, error) {
		d := time.Millisecond
		if cfg.ChipLoad < 0.3 {
			d = 30 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fakeReport(cfg), nil
	}
	loads := make([]float64, 16)
	for i := range loads {
		loads[i] = slowLoad + 0.04*float64(i) // first 2 points slow, rest fast
	}
	// 1 chain of 16, bound 2, no voltage boundaries → force-splits at 2x
	// the bound into 4 segments of 4, dealt 2+2 across 2 workers. The
	// worker that lands the slow head segment lags; the other drains its
	// own pair and steals from the laggard's tail.
	e := newTestEngine(t, Options{Workers: 2, CacheSize: -1, segment: 2, Solver: skewed})
	job, err := e.SubmitSweep(context.Background(), SweepSpec{ChipLoads: loads})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, job, 30*time.Second); v.State != JobDone || v.Completed != 16 {
		t.Fatalf("state=%s completed=%d, want done/16", v.State, v.Completed)
	}
	st := e.Stats()
	if st.SweepSegments != 4 {
		t.Fatalf("segments=%d, want 4", st.SweepSegments)
	}
	if st.SweepSteals == 0 {
		t.Fatal("no steals under forced runtime skew — work stealing inactive")
	}
}

// TestSweepScheduleInvariance is the bitwise contract: with the same
// segment bound, a sweep's per-point reports are bit-for-bit identical
// whether the plan runs on one worker (pure sequential walk of the
// plan) or on four with stealing. Real co-simulation solves through the
// production chain solver, cache disabled so every point solves in both
// runs; reports are compared through their canonical JSON rendering,
// which preserves float64 bits.
func TestSweepScheduleInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-simulation sweep in -short mode")
	}
	loads := []float64{0.4, 0.55, 0.7, 0.85, 1.0, 1.15}
	run := func(workers int) map[int]string {
		e := newTestEngine(t, Options{Workers: workers, CacheSize: -1, segment: 2})
		job, err := e.SubmitSweep(context.Background(), SweepSpec{ChipLoads: loads})
		if err != nil {
			t.Fatal(err)
		}
		v := waitJob(t, job, 15*time.Minute)
		if v.State != JobDone || v.Completed != len(loads) {
			t.Fatalf("workers=%d: state=%s completed=%d, want done/%d", workers, v.State, v.Completed, len(loads))
		}
		out := make(map[int]string, len(v.Results))
		for _, r := range v.Results {
			if r.Report == nil {
				t.Fatalf("workers=%d: point %d missing report: %+v", workers, r.Index, r)
			}
			buf, err := json.Marshal(r.Report)
			if err != nil {
				t.Fatal(err)
			}
			out[r.Index] = string(buf)
		}
		return out
	}

	seq := run(1)
	par := run(4)
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for idx, want := range seq {
		if got := par[idx]; got != want {
			t.Fatalf("point %d differs between 1-worker and 4-worker runs:\n  seq: %s\n  par: %s", idx, want, got)
		}
	}
}
