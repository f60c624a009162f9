package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %g", g.Value())
	}
	g.Set(3.5)
	g.Set(2.25)
	if g.Value() != 2.25 {
		t.Fatalf("gauge = %g, want 2.25", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	counts, sum, total := h.snapshot()
	// 0.5 and 1 land in le=1 (bounds are inclusive), 5 in le=10,
	// 50 in le=100, 500 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
	if total != 5 {
		t.Fatalf("count = %d, want 5", total)
	}
	if math.Abs(sum-556.5) > 1e-12 {
		t.Fatalf("sum = %g, want 556.5", sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform in (0, 4]: 25 per bucket in le=1..le=4.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if q := h.Quantile(0.5); math.Abs(q-2) > 0.25 {
		t.Fatalf("p50 = %g, want ~2", q)
	}
	if q := h.Quantile(1); q != 4 {
		t.Fatalf("p100 = %g, want 4", q)
	}
	// Values beyond the last finite bound clamp to it.
	h2 := newHistogram([]float64{1})
	h2.Observe(1000)
	if q := h2.Quantile(0.99); q != 1 {
		t.Fatalf("+Inf-bucket quantile = %g, want clamp to 1", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-15 {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("k", "v"))
	b := r.Counter("x_total", "help", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("x_total", "help", L("k", "w"))
	if other == a {
		t.Fatal("distinct label values shared a series")
	}
	h1 := r.Histogram("h", "", []float64{1, 2})
	h2 := r.Histogram("h", "", []float64{1, 2})
	if h1 != h2 {
		t.Fatal("histogram re-registration returned a new instance")
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("y_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("y_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("z_total", "")
}

// TestConcurrentUse exercises registration, mutation and exposition
// concurrently; run under -race this is the registry's thread-safety
// proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "")
	h := r.Histogram("lat_seconds", "", DefLatencyBuckets)
	var depth Gauge
	r.GaugeFunc("depth", "", depth.Value)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-4)
				depth.Set(float64(i))
				// Concurrent idempotent re-registration.
				r.Counter("events_total", "")
				r.Counter("per_goroutine_total", "", L("g", string(rune('a'+g))))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := r.WritePrometheus(discard{}); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
