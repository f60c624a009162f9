package mesh

import (
	"math"
	"math/rand"
	"testing"
)

func TestUniformAxis(t *testing.T) {
	a := NewUniformAxis(1.0, 4)
	if a.N() != 4 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Length() != 1.0 {
		t.Fatalf("Length = %g", a.Length())
	}
	if math.Abs(a.Centers[0]-0.125) > 1e-15 || math.Abs(a.Widths[2]-0.25) > 1e-15 {
		t.Fatalf("centers/widths wrong: %v %v", a.Centers, a.Widths)
	}
	if a.Edges[4] != 1.0 {
		t.Fatal("last edge must be exact")
	}
}

func TestNonuniformAxis(t *testing.T) {
	a := NewAxis([]float64{0, 0.1, 0.5, 1.0})
	if a.N() != 3 {
		t.Fatalf("N = %d", a.N())
	}
	if math.Abs(a.Widths[1]-0.4) > 1e-15 {
		t.Fatalf("width[1] = %g", a.Widths[1])
	}
	if math.Abs(a.CenterSpacing(0)-(0.3-0.05)) > 1e-15 {
		t.Fatalf("center spacing = %g", a.CenterSpacing(0))
	}
}

func TestAxisPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero cells", func() { NewUniformAxis(1, 0) })
	mustPanic("negative length", func() { NewUniformAxis(-1, 3) })
	mustPanic("non-increasing", func() { NewAxis([]float64{0, 1, 1}) })
	mustPanic("too few edges", func() { NewAxis([]float64{0}) })
}

func TestFindCell(t *testing.T) {
	a := NewAxis([]float64{0, 1, 3, 6})
	cases := []struct {
		x    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.99, 0}, {1, 1}, {2.5, 1}, {3, 2}, {5.9, 2}, {6, 2}, {100, 2},
	}
	for _, c := range cases {
		if got := a.FindCell(c.x); got != c.want {
			t.Errorf("FindCell(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestFindCellConsistentWithEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := []float64{0}
	for i := 0; i < 30; i++ {
		edges = append(edges, edges[len(edges)-1]+0.01+rng.Float64())
	}
	a := NewAxis(edges)
	for trial := 0; trial < 500; trial++ {
		x := rng.Float64() * a.Length()
		i := a.FindCell(x)
		if x < a.Edges[i] || x > a.Edges[i+1] {
			t.Fatalf("x=%g not inside cell %d [%g,%g]", x, i, a.Edges[i], a.Edges[i+1])
		}
	}
}

func TestGrid2DIndexRoundTrip(t *testing.T) {
	g := NewUniformGrid2D(2, 1, 5, 3)
	if g.NumCells() != 15 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	// Index is row-major with X fastest and visits every cell once.
	for j := 0; j < g.NY(); j++ {
		for i := 0; i < g.NX(); i++ {
			if idx := g.Index(i, j); idx != j*g.NX()+i {
				t.Fatalf("Index(%d,%d) = %d, want %d", i, j, idx, j*g.NX()+i)
			}
		}
	}
	if math.Abs(g.CellArea(0, 0)-(0.4*1.0/3.0)) > 1e-15 {
		t.Fatalf("CellArea = %g", g.CellArea(0, 0))
	}
}

func TestGridIndexPanics(t *testing.T) {
	g := NewUniformGrid2D(1, 1, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Index(2, 0)
}

func TestField2D(t *testing.T) {
	g := NewUniformGrid2D(2, 3, 4, 6)
	f := NewField2D(g)
	for i := range f.Data {
		f.Data[i] = 2
	}
	// Integral of constant 2 over 2x3 domain = 12.
	if math.Abs(f.Integrate()-12) > 1e-12 {
		t.Fatalf("Integrate = %g", f.Integrate())
	}
	f.Set(1, 2, -5)
	if f.At(1, 2) != -5 {
		t.Fatal("Set/At")
	}
	lo, hi := f.MinMax()
	if lo != -5 || hi != 2 {
		t.Fatalf("MinMax = %g, %g", lo, hi)
	}
}

// Property: the cells of a tensor grid of random nonuniform axes fill
// the domain volume exactly.
func TestVolumeConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		mkEdges := func(n int) []float64 {
			e := []float64{0}
			for i := 0; i < n; i++ {
				e = append(e, e[len(e)-1]+0.01+rng.Float64())
			}
			return e
		}
		x, y, z := NewAxis(mkEdges(5)), NewAxis(mkEdges(4)), NewAxis(mkEdges(3))
		total := 0.0
		for _, dz := range z.Widths {
			for _, dy := range y.Widths {
				for _, dx := range x.Widths {
					total += dx * dy * dz
				}
			}
		}
		want := x.Length() * y.Length() * z.Length()
		if math.Abs(total-want) > 1e-10*want {
			t.Fatalf("trial %d: sum %g vs domain %g", trial, total, want)
		}
	}
}

// Length returns the total axis extent.
func (a Axis) Length() float64 { return a.Edges[len(a.Edges)-1] - a.Edges[0] }
