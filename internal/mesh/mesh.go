// Package mesh provides structured rectilinear grids (1D/2D) with
// cell-centered indexing, the discretization substrate for the
// finite-volume transport solver, the compact thermal model and the power
// grid. Grids may be nonuniform per axis.
package mesh

import "fmt"

// Axis describes one grid direction: cell edges and derived centers.
type Axis struct {
	Edges   []float64 // len N+1, strictly increasing
	Centers []float64 // len N
	Widths  []float64 // len N
}

// NewUniformAxis builds an axis spanning [0, length] with n equal cells.
func NewUniformAxis(length float64, n int) Axis {
	if n <= 0 || length <= 0 {
		panic(fmt.Sprintf("mesh: invalid axis (length=%g, n=%d)", length, n))
	}
	edges := make([]float64, n+1)
	for i := range edges {
		edges[i] = length * float64(i) / float64(n)
	}
	edges[n] = length
	return NewAxis(edges)
}

// NewAxis builds an axis from explicit, strictly increasing cell edges.
func NewAxis(edges []float64) Axis {
	if len(edges) < 2 {
		panic("mesh: axis needs at least 2 edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic(fmt.Sprintf("mesh: edges not increasing at %d (%g <= %g)", i, edges[i], edges[i-1]))
		}
	}
	n := len(edges) - 1
	a := Axis{
		Edges:   append([]float64(nil), edges...),
		Centers: make([]float64, n),
		Widths:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		a.Centers[i] = 0.5 * (edges[i] + edges[i+1])
		a.Widths[i] = edges[i+1] - edges[i]
	}
	return a
}

// N returns the number of cells on the axis.
func (a Axis) N() int { return len(a.Centers) }

// CenterSpacing returns the distance between the centers of cells i and
// i+1 (used for gradient/conductance computation between neighbours).
func (a Axis) CenterSpacing(i int) float64 { return a.Centers[i+1] - a.Centers[i] }

// FindCell returns the index of the cell containing coordinate x,
// clamped to [0, N-1]. Coordinates exactly on an interior edge belong to
// the higher cell.
func (a Axis) FindCell(x float64) int {
	n := a.N()
	lo, hi := 0, n // binary search over edges
	for lo < hi {
		mid := (lo + hi) / 2
		if a.Edges[mid+1] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= n {
		lo = n - 1
	}
	return lo
}

// Grid2D is a cell-centered 2D structured grid (X horizontal, Y vertical).
type Grid2D struct {
	X, Y Axis
}

// NewUniformGrid2D builds a uniform grid over lengthX x lengthY.
func NewUniformGrid2D(lengthX, lengthY float64, nx, ny int) *Grid2D {
	return &Grid2D{X: NewUniformAxis(lengthX, nx), Y: NewUniformAxis(lengthY, ny)}
}

// NX returns the number of cells along X.
func (g *Grid2D) NX() int { return g.X.N() }

// NY returns the number of cells along Y.
func (g *Grid2D) NY() int { return g.Y.N() }

// NumCells returns the total number of cells.
func (g *Grid2D) NumCells() int { return g.NX() * g.NY() }

// Index returns the flat row-major index of cell (i, j) where i indexes X
// and j indexes Y.
func (g *Grid2D) Index(i, j int) int {
	if i < 0 || i >= g.NX() || j < 0 || j >= g.NY() {
		panic(fmt.Sprintf("mesh: cell (%d,%d) out of %dx%d", i, j, g.NX(), g.NY()))
	}
	return j*g.NX() + i
}

// CellArea returns the area of cell (i, j).
func (g *Grid2D) CellArea(i, j int) float64 { return g.X.Widths[i] * g.Y.Widths[j] }

// Field2D is a scalar field on a Grid2D, stored row-major like
// Grid2D.Index.
type Field2D struct {
	Grid *Grid2D
	Data []float64
}

// NewField2D allocates a zero field on g.
func NewField2D(g *Grid2D) *Field2D {
	return &Field2D{Grid: g, Data: make([]float64, g.NumCells())}
}

// At returns the value at cell (i, j).
func (f *Field2D) At(i, j int) float64 { return f.Data[f.Grid.Index(i, j)] }

// Set assigns the value at cell (i, j).
func (f *Field2D) Set(i, j int, v float64) { f.Data[f.Grid.Index(i, j)] = v }

// Integrate returns the area integral of the field over the grid.
func (f *Field2D) Integrate() float64 {
	s := 0.0
	for j := 0; j < f.Grid.NY(); j++ {
		for i := 0; i < f.Grid.NX(); i++ {
			s += f.At(i, j) * f.Grid.CellArea(i, j)
		}
	}
	return s
}

// MinMax returns the extreme values of the field.
func (f *Field2D) MinMax() (lo, hi float64) {
	lo, hi = f.Data[0], f.Data[0]
	for _, v := range f.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}
