package num

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// COO is a coordinate-format sparse matrix builder. Duplicate entries are
// summed when converting to CSR, which makes it convenient for
// finite-volume / nodal-analysis stamping.
type COO struct {
	Rows, Cols int
	ri, ci     []int
	v          []float64
}

// NewCOO returns an empty COO builder of the given shape.
func NewCOO(rows, cols int) *COO {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("num: invalid sparse shape %dx%d", rows, cols))
	}
	return &COO{Rows: rows, Cols: cols}
}

// Add stamps v at (i, j). Repeated stamps at the same position accumulate.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("num: COO index (%d,%d) out of %dx%d", i, j, c.Rows, c.Cols))
	}
	if v == 0 {
		return
	}
	c.ri = append(c.ri, i)
	c.ci = append(c.ci, j)
	c.v = append(c.v, v)
}

// NNZ returns the number of raw (pre-deduplication) stamps.
func (c *COO) NNZ() int { return len(c.v) }

// ToCSR converts the builder into compressed-sparse-row form, merging
// duplicate entries.
func (c *COO) ToCSR() *CSR {
	n := len(c.v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if c.ri[ia] != c.ri[ib] {
			return c.ri[ia] < c.ri[ib]
		}
		return c.ci[ia] < c.ci[ib]
	})
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	lastR, lastC := -1, -1
	for _, k := range idx {
		r, col, val := c.ri[k], c.ci[k], c.v[k]
		if r == lastR && col == lastC {
			m.Val[len(m.Val)-1] += val
			continue
		}
		m.ColIdx = append(m.ColIdx, col)
		m.Val = append(m.Val, val)
		lastR, lastC = r, col
		m.RowPtr[r+1]++
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64

	// sell is the optional SELL-C-σ mirror attached by ensureFormat at
	// solver/hierarchy setup. When present, MulVec runs the sliced
	// kernel instead of the row gather; results are bitwise identical
	// either way. The pointer is atomic so a mirror can be attached
	// while other goroutines multiply.
	sell atomic.Pointer[SELLCS]
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Layout reports the layout MulVec runs on: "sell" once a SELL-C-σ
// mirror is attached, "csr" otherwise.
func (m *CSR) Layout() string {
	if m.sell.Load() != nil {
		return "sell"
	}
	return "csr"
}

// MulVec computes y = m*x, each row summed in ascending column order.
// With a SELL-C-σ mirror attached the product runs on it, bitwise
// identical.
func (m *CSR) MulVec(x, y []float64) {
	if s := m.sell.Load(); s != nil {
		s.MulVec(x, y) // counts its own traversed rows
		return
	}
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(ErrShape)
	}
	spmvRowsTraversed.Add(uint64(m.Rows))
	mulVecRange(m, x, y, 0, m.Rows)
}

// Diag extracts the matrix diagonal into a fresh slice. Missing diagonal
// entries are reported as zero.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				d[i] = m.Val[k]
				break
			}
		}
	}
	return d
}

// At returns the entry at (i, j) (zero if not stored). It is O(row nnz)
// and intended for tests and diagnostics, not inner loops.
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return m.Val[k]
		}
	}
	return 0
}

// IsSymmetric reports whether the matrix is numerically symmetric to
// within tol on every stored entry. Intended for solver-precondition
// checks in tests.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			d := m.Val[k] - m.At(j, i)
			if d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}
