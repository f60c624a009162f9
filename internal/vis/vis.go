// Package vis renders simulation fields for humans and files: ASCII
// heatmaps for terminal output (the Fig. 8 voltage map and Fig. 9
// thermal map) and CSV writers for the benchmark harness so every figure
// can be re-plotted externally.
package vis

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"bright/internal/mesh"
)

// ramp is the ASCII intensity ramp, dark to bright.
const ramp = " .:-=+*#%@"

// HeatmapOptions configures ASCII rendering.
type HeatmapOptions struct {
	// MaxCols bounds the rendered width in characters (default 88).
	MaxCols int
	// Title is printed above the map when non-empty.
	Title string
	// Unit labels the scale line (e.g. "C", "V").
	Unit string
	// FlipY renders row 0 at the bottom (natural die coordinates).
	FlipY bool
	// Lo, Hi override the color scale; when both are zero the field
	// min/max is used.
	Lo, Hi float64
}

// ASCIIHeatmap renders a Field2D as an ASCII intensity map with a scale
// legend. Cells are downsampled by averaging when the field is wider
// than MaxCols.
func ASCIIHeatmap(f *mesh.Field2D, opt HeatmapOptions) string {
	if opt.MaxCols <= 0 {
		opt.MaxCols = 88
	}
	nx, ny := f.Grid.NX(), f.Grid.NY()
	lo, hi := opt.Lo, opt.Hi
	if lo == 0 && hi == 0 {
		lo, hi = f.MinMax()
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	// Downsample factors.
	fx := (nx + opt.MaxCols - 1) / opt.MaxCols
	if fx < 1 {
		fx = 1
	}
	// Terminal cells are ~2x taller than wide; compensate.
	fy := 2 * fx
	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	rows := make([]string, 0, ny/fy+1)
	for j0 := 0; j0 < ny; j0 += fy {
		var line strings.Builder
		for i0 := 0; i0 < nx; i0 += fx {
			sum, n := 0.0, 0
			for j := j0; j < j0+fy && j < ny; j++ {
				for i := i0; i < i0+fx && i < nx; i++ {
					sum += f.At(i, j)
					n++
				}
			}
			v := (sum/float64(n) - lo) / span
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			idx := int(v * float64(len(ramp)-1))
			line.WriteByte(ramp[idx])
		}
		rows = append(rows, line.String())
	}
	if opt.FlipY {
		for k := len(rows) - 1; k >= 0; k-- {
			b.WriteString(rows[k])
			b.WriteByte('\n')
		}
	} else {
		for _, r := range rows {
			b.WriteString(r)
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "scale: '%c' = %.4g %s ... '%c' = %.4g %s\n",
		ramp[0], lo, opt.Unit, ramp[len(ramp)-1], hi, opt.Unit)
	return b.String()
}

// WriteCSVMatrix writes a Field2D as CSV with x coordinates in the
// header row and y coordinates in the first column (both in the given
// unit scale factor, e.g. 1e3 for mm). Every number is written in its
// shortest round-trip form, so ReadCSVMatrix gets the values back
// bitwise and CSVs from two runs compare at full precision.
func WriteCSVMatrix(w io.Writer, f *mesh.Field2D, coordScale float64) error {
	if coordScale == 0 {
		coordScale = 1
	}
	g := f.Grid
	cols := make([]string, 0, g.NX()+1)
	cols = append(cols, "y\\x")
	for i := 0; i < g.NX(); i++ {
		cols = append(cols, strconv.FormatFloat(g.X.Centers[i]*coordScale, 'g', -1, 64))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for j := 0; j < g.NY(); j++ {
		cols = cols[:0]
		cols = append(cols, strconv.FormatFloat(g.Y.Centers[j]*coordScale, 'g', -1, 64))
		for i := 0; i < g.NX(); i++ {
			cols = append(cols, strconv.FormatFloat(f.At(i, j), 'g', -1, 64))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVSeries writes column-oriented series data with a header.
// All columns must have equal length.
func WriteCSVSeries(w io.Writer, headers []string, columns ...[]float64) error {
	if len(headers) != len(columns) {
		return fmt.Errorf("vis: %d headers for %d columns", len(headers), len(columns))
	}
	if len(columns) == 0 {
		return fmt.Errorf("vis: no columns")
	}
	n := len(columns[0])
	for k, c := range columns {
		if len(c) != n {
			return fmt.Errorf("vis: column %d has %d rows, want %d", k, len(c), n)
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	row := make([]string, len(columns))
	for r := 0; r < n; r++ {
		for c := range columns {
			row[c] = fmt.Sprintf("%.8g", columns[c][r])
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
