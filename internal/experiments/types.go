// Package experiments regenerates every table and figure of the paper's
// evaluation: Fig. 3 (validation polarization curves), Fig. 7 (array V-I
// characteristic), Fig. 8 (power-grid voltage map), Fig. 9 (thermal
// map), the scalar claims of Section III (cache power, pumping power,
// temperature-coupling gains), and the ablation studies listed in
// DESIGN.md. Each experiment returns plain data consumed by both
// cmd/repro (CSV/ASCII output) and the root bench harness.
package experiments

// Series is one named X-Y data series.
type Series struct {
	Name string
	X, Y []float64
}

// maxRelDiff returns the maximum relative difference between two equal-
// length value slices (relative to the reference slice b).
func maxRelDiff(a, b []float64) float64 {
	m := 0.0
	for k := range a {
		if b[k] == 0 {
			continue
		}
		d := (a[k] - b[k]) / b[k]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
