package vis

import (
	"strings"
	"testing"

	"bright/internal/mesh"
)

func gradientField(nx, ny int) *mesh.Field2D {
	g := mesh.NewUniformGrid2D(1, 1, nx, ny)
	f := mesh.NewField2D(g)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			f.Set(i, j, float64(i+j))
		}
	}
	return f
}

func TestASCIIHeatmapBasics(t *testing.T) {
	f := gradientField(40, 20)
	out := ASCIIHeatmap(f, HeatmapOptions{Title: "map", Unit: "C"})
	if !strings.HasPrefix(out, "map\n") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "scale:") {
		t.Fatal("missing scale legend")
	}
	// Coldest and hottest glyphs both appear on a full gradient.
	if !strings.Contains(out, " ") || !strings.Contains(out, "@") {
		t.Fatalf("gradient should span the ramp:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + >=1 row + scale line.
	if len(lines) < 3 {
		t.Fatalf("too few lines: %d", len(lines))
	}
}

func TestASCIIHeatmapDownsample(t *testing.T) {
	f := gradientField(400, 100)
	out := ASCIIHeatmap(f, HeatmapOptions{MaxCols: 50})
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "scale:") || line == "" {
			continue
		}
		if len(line) > 100 {
			t.Fatalf("row too wide: %d chars", len(line))
		}
	}
}

func TestASCIIHeatmapFlipY(t *testing.T) {
	// With values growing along +y, FlipY puts the bright row first.
	f := gradientField(10, 30)
	flipped := ASCIIHeatmap(f, HeatmapOptions{FlipY: true})
	normal := ASCIIHeatmap(f, HeatmapOptions{})
	fl := strings.Split(flipped, "\n")
	nl := strings.Split(normal, "\n")
	if fl[0] != nl[len(nl)-3] { // last map row before the scale line
		t.Fatalf("FlipY did not reverse rows:\n%q\n%q", fl[0], nl[len(nl)-3])
	}
}

func TestASCIIHeatmapConstantField(t *testing.T) {
	g := mesh.NewUniformGrid2D(1, 1, 5, 5)
	f := mesh.NewField2D(g)
	for i := range f.Data {
		f.Data[i] = 3
	}
	out := ASCIIHeatmap(f, HeatmapOptions{})
	if out == "" || !strings.Contains(out, "scale:") {
		t.Fatal("constant field must render without dividing by zero")
	}
}

func TestWriteCSVMatrix(t *testing.T) {
	f := gradientField(3, 2)
	var b strings.Builder
	if err := WriteCSVMatrix(&b, f, 1e3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header+2 rows, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "y\\x,") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.Contains(lines[1], ",") {
		t.Fatal("row missing values")
	}
}

func TestWriteCSVSeries(t *testing.T) {
	var b strings.Builder
	err := WriteCSVSeries(&b, []string{"i", "v"}, []float64{0, 1, 2}, []float64{1.5, 1.2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 || lines[0] != "i,v" {
		t.Fatalf("bad output: %q", b.String())
	}
	// Errors.
	if err := WriteCSVSeries(&b, []string{"a"}, []float64{1}, []float64{2}); err == nil {
		t.Fatal("header/column mismatch accepted")
	}
	if err := WriteCSVSeries(&b, []string{"a", "b"}, []float64{1}, []float64{2, 3}); err == nil {
		t.Fatal("ragged columns accepted")
	}
	if err := WriteCSVSeries(&b, []string{}); err == nil {
		t.Fatal("empty columns accepted")
	}
}
