package main

import "sort"

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is the number of samples the reported tail must leave
// above it.
const tailBeyond = 10

// tail is the latency tail as the benchmark reports it: the value, the
// percentile it sits at, the number of samples above it and the number
// of samples and windows it was taken over.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
	Windows    int     `json:"windows"`
}

// tailWindow is the number of samples per window of the tail estimate,
// and maxTailWindows the most windows a run is cut into.
const (
	tailWindow     = 1000
	maxTailWindows = 24
)

// windows is the number of consecutive windows n samples are cut into
// for the tail and throughput estimates: at least tailWindow samples
// each, at most maxTailWindows, and one when there are fewer samples.
func windows(n int) int { return max(1, min(maxTailWindows, n/tailWindow)) }

// tailOf estimates the latency tail of samples in completion order. A
// run with many samples is cut into consecutive windows of at least
// tailWindow samples, the tail is taken in each and the median over
// windows reported: a few hundred milliseconds of machine noise then
// move one window's tail, not the run's. Each window's tail is the
// highest whole percentile, at most the tailCap-th, that still has at
// least ten samples beyond it (see tailRule).
func tailOf(xs []float64) tail {
	w := windows(len(xs))
	var vals []float64
	var t tail
	for i := 0; i < w; i++ {
		t = tailRule(xs[i*len(xs)/w : (i+1)*len(xs)/w])
		vals = append(vals, t.Value)
	}
	t.Value, t.Samples, t.Windows = median(vals), len(xs), w
	return t
}

// tailCap is the highest percentile the tail reports. On a 2-vCPU
// virtual machine the 99th percentile of the sub-millisecond
// evaluate-hot requests is set by the collector's stop-the-world
// pauses, which wait for any vCPU the hypervisor has descheduled: it
// spread over a factor of 2 to 6 between runs, the 95th over about
// half that.
const tailCap = 95

// tailRule returns the highest whole percentile, at most tailCap, that
// still has at least ten samples beyond it, by nearest rank: with n
// sorted samples, p = min(tailCap, floor(100*(n-10)/n)) and the value is the
// ceil(p*n/100)-th sample. Below eleven samples no percentile
// qualifies, so the maximum is reported with the count of samples
// beyond it (zero) made explicit.
func tailRule(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, Beyond: 0, Samples: n}
	}
	p := min(tailCap, 100*(n-tailBeyond)/n)
	k := max(1, (p*n+99)/100) // 1-based nearest rank
	return tail{Value: s[k-1], Percentile: float64(p), Beyond: n - k, Samples: n}
}

// throughputOf estimates the work units completed per second from the
// operations' completion times (seconds since the window opened, in
// completion order) and units, cut into the same windows as the tail:
// each window's rate runs from the previous window's last completion
// to its own, and the median over windows is reported, so a stall of
// the machine moves one window's rate, not the run's. With a single
// window it is all units over the whole elapsed time.
func throughputOf(done []float64, units []int, elapsed float64) float64 {
	n := len(done)
	w := windows(n)
	if w == 1 {
		total := 0
		for _, u := range units {
			total += u
		}
		return ratio(float64(total), elapsed)
	}
	var rates []float64
	prev := 0.0
	for i := 0; i < w; i++ {
		sum := 0
		for _, u := range units[i*n/w : (i+1)*n/w] {
			sum += u
		}
		end := done[(i+1)*n/w-1]
		rates = append(rates, ratio(float64(sum), end-prev))
		prev = end
	}
	return median(rates)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
