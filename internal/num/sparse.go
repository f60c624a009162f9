package num

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// COO is a coordinate-format sparse matrix builder. Duplicate entries are
// summed when converting to CSR, which makes it convenient for
// finite-volume / nodal-analysis stamping. Stamp coordinates are stored
// as int32, halving the triplets' index memory.
type COO struct {
	Rows, Cols int
	ri, ci     []int32
	v          []float64
}

// NewCOO returns an empty COO builder of the given shape.
func NewCOO(rows, cols int) *COO {
	if rows <= 0 || cols <= 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
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
	c.ri = append(c.ri, int32(i))
	c.ci = append(c.ci, int32(j))
	c.v = append(c.v, v)
}

// NNZ returns the number of raw (pre-deduplication) stamps.
func (c *COO) NNZ() int { return len(c.v) }

// Grow reserves room for k more stamps, like slices.Grow: a builder
// whose caller knows its stamp count up front fills it without
// regrowing the triplet slices.
func (c *COO) Grow(k int) {
	c.ri = slices.Grow(c.ri, k)
	c.ci = slices.Grow(c.ci, k)
	c.v = slices.Grow(c.v, k)
}

// Cap returns the number of stamps the builder holds without growing.
func (c *COO) Cap() int { return min(cap(c.ri), cap(c.ci), cap(c.v)) }

// ToCSR converts the builder into compressed-sparse-row form, merging
// duplicate entries. The conversion is linear in the stamp count for
// short rows: a counting sort scatters the stamps into per-row buckets
// in stamp order, each bucket is sorted by column (stably), and
// duplicates are summed in stamp order, so the result equals a dense
// accumulation of the stamps in the order they were added, bitwise.
// Columns strictly ascend within each row.
func (c *COO) ToCSR() *CSR {
	n := len(c.v)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("num: %d COO stamps exceed int32 indexing", n))
	}
	// start[r] is the first slot of row r's bucket in perm. Counting
	// row r's stamps into start[r+2] makes the prefix sum leave
	// start[r+1] at row r's first slot; the scatter then advances it as
	// row r's write cursor, which leaves it at row r's end, its final
	// value.
	start := make([]int, c.Rows+1)
	for _, r := range c.ri {
		if int(r) < c.Rows-1 {
			start[r+2]++
		}
	}
	for r := 1; r < c.Rows; r++ {
		start[r+1] += start[r]
	}
	perm := make([]int32, n)
	for k, r := range c.ri {
		perm[start[r+1]] = int32(k)
		start[r+1]++
	}
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	for r := 0; r < c.Rows; r++ {
		bucket := perm[start[r]:start[r+1]]
		c.sortByColumn(bucket)
		distinct := 0
		for t, k := range bucket {
			if t == 0 || c.ci[k] != c.ci[bucket[t-1]] {
				distinct++
			}
		}
		m.RowPtr[r+1] = m.RowPtr[r] + distinct
	}
	m.ColIdx = make([]int, m.RowPtr[c.Rows])
	m.Val = make([]float64, m.RowPtr[c.Rows])
	out := -1
	for r := 0; r < c.Rows; r++ {
		bucket := perm[start[r]:start[r+1]]
		for t, k := range bucket {
			if t > 0 && c.ci[k] == c.ci[bucket[t-1]] {
				m.Val[out] += c.v[k]
				continue
			}
			out++
			m.ColIdx[out] = int(c.ci[k])
			m.Val[out] = c.v[k]
		}
	}
	return m
}

// insertionSortMax is the bucket length up to which sortByColumn uses
// insertion sort; finite-volume and nodal stencils stay well below it,
// and a longer (dense-ish) row falls back to an O(k log k) stable sort.
const insertionSortMax = 32

// sortByColumn stably sorts a row bucket of stamp indices by column,
// so equal columns keep stamp order.
func (c *COO) sortByColumn(bucket []int32) {
	if len(bucket) > insertionSortMax {
		slices.SortStableFunc(bucket, func(a, b int32) int { return cmp.Compare(c.ci[a], c.ci[b]) })
		return
	}
	for t := 1; t < len(bucket); t++ {
		k := bucket[t]
		col := c.ci[k]
		u := t
		for ; u > 0 && c.ci[bucket[u-1]] > col; u-- {
			bucket[u] = bucket[u-1]
		}
		bucket[u] = k
	}
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = m*x, each row summed in ascending column order.
func (m *CSR) MulVec(x, y []float64) {
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
