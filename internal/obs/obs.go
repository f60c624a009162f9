// Package obs is the dependency-free observability layer: atomic
// counters, gauges and fixed-bucket histograms collected into named
// registries and exported in the Prometheus text exposition format.
// It exists so the serving path (internal/sim, cmd/brightd) and the
// numeric core (internal/num, internal/cosim, internal/thermal) can
// publish solver telemetry — solve latencies, queue pressure, Krylov
// iteration counts, fixed-point convergence outcomes — without pulling
// a metrics dependency into a stdlib-only repository.
//
// Concurrency: all metric mutators (Inc, Add, Set, Observe) are
// lock-free atomics and safe for concurrent use; registration and
// exposition serialize on the registry mutex. Instruments are cheap
// enough for per-solve granularity, but not intended for per-element
// inner loops.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic add/load, stored as IEEE bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depth, utilization).
type Gauge struct {
	v atomicFloat
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram is a fixed-bucket latency/size distribution: cumulative
// bucket counts in the Prometheus style (bucket i counts observations
// <= Bounds[i], plus an implicit +Inf bucket), a running sum and a
// total count. Bounds are set at registration and never change.
type Histogram struct {
	bounds []float64       // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len => +Inf
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// snapshot returns per-bucket (non-cumulative) counts, the sum and the
// total. The buckets are read without a global lock, so under
// concurrent Observe the snapshot is approximate — fine for exposition.
func (h *Histogram) snapshot() (counts []uint64, sum float64, total uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.sum.Load(), h.count.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket containing the target rank, the same
// estimate Prometheus' histogram_quantile gives. Observations in the
// +Inf bucket clamp to the largest finite bound. Returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts, _, total := h.snapshot()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefLatencyBuckets spans 500 µs to ~16 s — the range from a cached
// thermal re-solve to a cold full-grid co-simulation.
var DefLatencyBuckets = ExpBuckets(0.0005, 2, 16)
