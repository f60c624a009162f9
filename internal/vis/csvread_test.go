package vis

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"bright/internal/mesh"
)

// ReadCSVMatrix parses a matrix written by WriteCSVMatrix: an "y\x"
// header carrying x coordinates, then one row per y with the leading y
// coordinate. It returns the coordinate vectors and the values indexed
// [row][col].
func ReadCSVMatrix(r io.Reader) (xs, ys []float64, values [][]float64, err error) {
	sc := bufio.NewScanner(r)
	first := true
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if first {
			first = false
			if len(fields) < 2 || !strings.Contains(fields[0], `y\x`) {
				return nil, nil, nil, fmt.Errorf("vis: line %d: not a matrix header", line)
			}
			for _, f := range fields[1:] {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("vis: header x: %w", err)
				}
				xs = append(xs, v)
			}
			continue
		}
		if len(fields) != len(xs)+1 {
			return nil, nil, nil, fmt.Errorf("vis: line %d has %d fields, want %d", line, len(fields), len(xs)+1)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("vis: line %d y: %w", line, err)
		}
		ys = append(ys, y)
		row := make([]float64, len(xs))
		for c, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("vis: line %d col %d: %w", line, c, err)
			}
			row[c] = v
		}
		values = append(values, row)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	if xs == nil || ys == nil {
		return nil, nil, nil, fmt.Errorf("vis: empty matrix CSV")
	}
	return xs, ys, values, nil
}

func TestCSVSeriesRoundTrip(t *testing.T) {
	var b strings.Builder
	xs := []float64{0, 1.5, 3.25}
	ys := []float64{10, -2.5, 0.125}
	if err := WriteCSVSeries(&b, []string{"x", "y"}, xs, ys); err != nil {
		t.Fatal(err)
	}
	headers, cols, err := ReadCSVSeries(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 2 || headers[0] != "x" || headers[1] != "y" {
		t.Fatalf("headers %v", headers)
	}
	for k := range xs {
		if math.Abs(cols[0][k]-xs[k]) > 1e-12 || math.Abs(cols[1][k]-ys[k]) > 1e-12 {
			t.Fatalf("row %d: %v", k, cols)
		}
	}
}

func TestCSVSeriesErrors(t *testing.T) {
	if _, _, err := ReadCSVSeries(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, err := ReadCSVSeries(strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, _, err := ReadCSVSeries(strings.NewReader("a,b\n1,zebra\n")); err == nil {
		t.Fatal("non-numeric accepted")
	}
	// Blank lines are tolerated.
	if _, cols, err := ReadCSVSeries(strings.NewReader("a\n\n1\n\n2\n")); err != nil || len(cols[0]) != 2 {
		t.Fatalf("blank-line handling: %v %v", cols, err)
	}
}

func TestCSVMatrixRoundTrip(t *testing.T) {
	g := mesh.NewUniformGrid2D(2, 1, 4, 3)
	f := mesh.NewField2D(g)
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			f.Set(i, j, 300.15+float64(10*i+j)/7)
		}
	}
	var b strings.Builder
	if err := WriteCSVMatrix(&b, f, 1e3); err != nil {
		t.Fatal(err)
	}
	xs, ys, vals, err := ReadCSVMatrix(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 4 || len(ys) != 3 {
		t.Fatalf("shape %dx%d", len(xs), len(ys))
	}
	// Coordinates in mm.
	if math.Abs(xs[0]-g.X.Centers[0]*1e3) > 1e-9 {
		t.Fatalf("x scale: %g", xs[0])
	}
	// Values come back bitwise: the writer prints the shortest
	// round-trip form, not a fixed number of digits.
	for j := range ys {
		for i := range xs {
			if math.Float64bits(vals[j][i]) != math.Float64bits(f.At(i, j)) {
				t.Fatalf("value (%d,%d): %v vs %v", i, j, vals[j][i], f.At(i, j))
			}
		}
	}
}

func TestCSVMatrixErrors(t *testing.T) {
	if _, _, _, err := ReadCSVMatrix(strings.NewReader("")); err == nil {
		t.Fatal("empty accepted")
	}
	if _, _, _, err := ReadCSVMatrix(strings.NewReader("nope,1\n0,2\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, _, _, err := ReadCSVMatrix(strings.NewReader("y\\x,1,2\n0,3\n")); err == nil {
		t.Fatal("ragged row accepted")
	}
	if _, _, _, err := ReadCSVMatrix(strings.NewReader("y\\x,1\nzebra,3\n")); err == nil {
		t.Fatal("non-numeric y accepted")
	}
}
