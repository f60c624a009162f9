// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the real serving stack — sim.NewHandler over
// loopback HTTP, a cluster.Coordinator, stream.Manager sessions — with
// inputs generated from a seed, checks the answers, and prints one JSON
// result line:
//
//	go run . --workload evaluate-cold --seed 1 --seconds 22 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer and reports the
// per-layer metrics instead (see layerTable, which also records which
// end-to-end metric each layer metric should move, and where it should
// not). The line before the result stamps the conditions: nproc,
// GOMAXPROCS, num.KernelThreads, the Go version, and the tail's
// percentile and sample count.
//
// Rules that keep the figures steady, each for a reason:
//   - evaluate-cold and sweep-chained run one client: every solve
//     already forks num.KernelThreads (= GOMAXPROCS) kernel goroutines,
//     so a second client only adds contention.
//   - No workload runs more clients than nproc.
//   - twin-stream drives manual sessions only: free-running sessions
//     step on wall-clock pacing, which ties the work done to the noise.
//   - runtime.GC runs before each timed phase, so one phase's garbage
//     is not collected on the next one's clock.
//   - Each set-up ends with a discarded warm-up, so lazy process-wide
//     set-up and caches fill outside the measured window.
//   - setup_s is the median of three complete set-ups, each a sum of
//     work: the solver workloads warm at least two solves, not one.
//   - Latency tail and throughput are medians over windows of at least
//     1000 operations, so a stall of the machine moves one window.
//   - evaluate-cold and sweep-chained read heap_inuse_mb after a fixed
//     number of operations, not at the end of the window: the answer
//     cache grows with every solved request, so an end-of-window
//     reading would count operations.
//   - The sample slices are allocated before the window, so the
//     benchmark's own growing state does not change the collector's
//     pace during it.
//   - evaluate-hot's coordinator knows its backends by fixed names, so
//     the ring's split of the working set does not depend on ports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bright/internal/num"
)

// sampleCap is the number of operations a run's sample slices hold
// without growing: above evaluate-hot's count in a 22 s window on 2
// cores.
const sampleCap = 1 << 18

// setupReps is how many times a run builds and warms its stack;
// setup_s is the median.
const setupReps = 3

// measurement is what one measured window produced.
type measurement struct {
	attempted, failed int
	units             int
	lat               []float64 // latency samples (ms)
	done              []float64 // completion times (s since the window opened)
	doneUnits         []int     // work units of each completion
	opMS              [2][]float64
	elapsed           time.Duration
	allocBytes        uint64
	heapInuse         uint64
	heapAtOp          int // operations completed when heapInuse was read
	setupS            []float64
	spans             []span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is printed on the line before the result: the conditions the
// run measured under and the details behind its figures.
type info struct {
	Workload      string    `json:"workload"`
	Seed          uint64    `json:"seed"`
	Seconds       float64   `json:"seconds"`
	Trace         bool      `json:"trace"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	KernelThreads int       `json:"kernel_threads"`
	GoVersion     string    `json:"go_version"`
	Clients       int       `json:"clients"`
	Ops           int       `json:"ops"`
	Units         int       `json:"units"`
	ElapsedS      float64   `json:"elapsed_s"`
	Tail          tail      `json:"latency_tail"`
	HeapAtOp      int       `json:"heap_at_op"`
	SetupS        []float64 `json:"setup_s"`
	Checks        int       `json:"checks"`
	Problems      []string  `json:"problems,omitempty"`
	TraceFile     string    `json:"trace_file,omitempty"`
}

func main() {
	name := flag.String("workload", "", "evaluate-cold, sweep-chained, evaluate-hot or twin-stream")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 22, "measured window (s)")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for trace files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, outDir string) error {
	ctx := context.Background()
	b := base{gen: newGenerator(seed), hc: newHTTPClient(runtime.NumCPU() + 1)}
	defer b.hc.CloseIdleConnections()
	if traced {
		b.tr = newTracer()
	}
	w, err := newWorkload(name, b)
	if err != nil {
		return err
	}
	c := w.common()
	defer func() {
		if c.st != nil {
			c.st.close()
		}
	}()

	var m measurement
	for rep := 0; rep < setupReps; rep++ {
		if c.st != nil {
			c.st.close()
			c.st = nil
		}
		runtime.GC()
		t := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(t).Seconds())
	}

	var before snapshot
	mark := 0
	if traced {
		before = takeSnapshot(c.st)
		mark = c.tr.mark()
	}
	measure(ctx, w, time.Duration(seconds*float64(time.Second)), &m)
	if m.units == 0 {
		return fmt.Errorf("no operation completed in %gs", seconds)
	}
	var after snapshot
	if traced {
		after = takeSnapshot(c.st)
		m.spans = c.tr.since(mark)
	}
	w.check(ctx)

	inf := info{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), KernelThreads: num.KernelThreads(),
		GoVersion: runtime.Version(), Clients: w.clients(), Ops: m.attempted, Units: m.units,
		ElapsedS: m.elapsed.Seconds(), Tail: tailOf(m.lat), HeapAtOp: m.heapAtOp, SetupS: m.setupS,
		Checks: c.checks, Problems: c.problems,
	}
	res := result{
		Attempted: m.attempted + c.checks,
		Failed:    m.failed + c.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		layers, err := layerMetrics(ctx, w, &m, before, after)
		if err != nil {
			return err
		}
		for _, lm := range layerTable {
			res.Metrics[lm.Name] = metric{layers[lm.Name], lm.Unit}
		}
		inf.TraceFile = filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := c.tr.write(inf.TraceFile); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	} else {
		res.Metrics["latency_p50_ms"] = metric{median(m.lat), "ms"}
		res.Metrics["latency_tail_ms"] = metric{inf.Tail.Value, "ms"}
		res.Metrics["throughput_per_s"] = metric{throughputOf(m.done, m.doneUnits, m.elapsed.Seconds()), "1/s"}
		res.Metrics["alloc_mb_per_op"] = metric{float64(m.allocBytes) / 1e6 / float64(m.units), "MB"}
		res.Metrics["heap_inuse_mb"] = metric{float64(m.heapInuse) / 1e6, "MB"}
		res.Metrics["setup_s"] = metric{median(m.setupS), "s"}
	}
	res.Correct = res.Failed == 0
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]info{"info": inf}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// measure runs the workload's clients in a closed loop: each sends its
// next operation when the previous one completes, until the window
// closes. Operations in flight at the deadline finish and count; the
// elapsed time runs until the last one ends. In a traced run each
// input is sent twice in a row, once traced and once not, so the two
// halves give the tracing overhead on the same inputs: the traced one
// goes first in even pairs and second in odd ones, so both halves hold
// as many first as second sends.
func measure(ctx context.Context, w traffic, window time.Duration, m *measurement) {
	tr := w.common().tr
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Allocated in full before the window: grown during it, the samples
	// would be half of evaluate-hot's live heap by its end.
	m.lat = make([]float64, 0, sampleCap)
	m.done = make([]float64, 0, sampleCap)
	m.doneUnits = make([]int, 0, sampleCap)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				in, traced := k, false
				if tr != nil {
					in, traced = tracedSend(k)
				}
				var op *span
				if traced {
					op = tr.open(spanOp, 0, "")
				}
				t := time.Now()
				units, lat, err := w.op(ctx, c, in, op)
				d := msSince(t)
				if op != nil {
					tr.close(op)
				}
				mu.Lock()
				m.attempted++
				readHeap := m.attempted == w.heapOps()
				if err != nil {
					m.failed++
					if m.failed <= 5 {
						fmt.Fprintf(os.Stderr, "operation failed: %v\n", err)
					}
				} else {
					m.units += units
					m.lat = append(m.lat, lat...)
					m.done = append(m.done, time.Since(start).Seconds())
					m.doneUnits = append(m.doneUnits, units)
					half := 0
					if traced {
						half = 1
					}
					m.opMS[half] = append(m.opMS[half], d)
				}
				mu.Unlock()
				if readHeap {
					m.heapInuse, m.heapAtOp = heapInuse(), w.heapOps()
				}
			}
		}(c)
	}
	wg.Wait()
	m.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if m.heapAtOp == 0 { // the window closed before heapOps operations
		m.heapInuse, m.heapAtOp = heapInuse(), m.attempted
	}
}

// tracedSend maps a traced run's k-th send to its input and whether it
// is traced: inputs go out twice in a row, traced first in even pairs
// and second in odd ones.
func tracedSend(k int) (in int, traced bool) { return k / 2, k%2 == (k/2)%2 }

// heapInuse is HeapInuse after two collections: the first can leave
// garbage that only became unreachable during it (sweep-phase and
// finalizer leftovers).
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
