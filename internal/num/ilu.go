package num

import (
	"errors"
	"math"
)

// ErrILUPivot reports an ILU(0) factorization that met a zero or
// non-finite pivot, or a row with no stored diagonal.
var ErrILUPivot = errors.New("num: ILU(0) zero or non-finite pivot")

// ErrILUPattern reports a CSR whose rows are not stored in strictly
// ascending column order, which the zero-fill elimination walks rely
// on.
var ErrILUPattern = errors.New("num: ILU(0) needs strictly ascending columns per row")

// ILU0 is the zero-fill incomplete LU factorization of a square CSR:
// A ≈ L·U with L unit lower triangular and U upper triangular, both
// restricted to A's own sparsity pattern. It shares RowPtr and ColIdx
// with the source matrix and stores only the factored values (L below
// the diagonal, U on and above it, each U diagonal kept inverted so
// Apply multiplies instead of divides) plus the position of each row's
// diagonal entry.
//
// On the thermal networks — thin layers with very different lateral
// and vertical conductances, and fluid rows that form an upwind chain
// along each channel — the factor captures the strong couplings that
// defeat Jacobi, and BiCGSTAB needs a fifth to a seventh of Jacobi's
// iterations. It is a snapshot: later mutation of the source's values
// is not observed, but its index arrays must not be mutated while the
// factor is in use.
type ILU0 struct {
	rowPtr, colIdx []int
	val            []float64
	diag           []int
}

// NewILU0 factors a in natural order. It fails with ErrILUPattern when
// a row's columns are not strictly ascending, and with ErrILUPivot when
// a row lacks a diagonal entry or elimination leaves a zero or
// non-finite pivot.
func NewILU0(a *CSR) (*ILU0, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	f := &ILU0{rowPtr: a.RowPtr, colIdx: a.ColIdx, val: make([]float64, len(a.Val)), diag: make([]int, n)}
	copy(f.val, a.Val)
	for i := 0; i < n; i++ {
		f.diag[i] = -1
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if p > a.RowPtr[i] && a.ColIdx[p] <= a.ColIdx[p-1] {
				return nil, ErrILUPattern
			}
			if a.ColIdx[p] == i {
				f.diag[i] = p
			}
		}
		if f.diag[i] < 0 {
			return nil, ErrILUPivot
		}
	}
	for i := 0; i < n; i++ {
		end := f.rowPtr[i+1]
		// Eliminate row i's lower entries in ascending column order.
		// Row k < i is final, its diagonal already inverted.
		for p := f.rowPtr[i]; p < f.diag[i]; p++ {
			k := f.colIdx[p]
			f.val[p] *= f.val[f.diag[k]]
			lik := f.val[p]
			// Subtract lik·U[k, j] for every j > k that row i stores:
			// both column lists ascend, so one merge walk finds them.
			q, r := f.diag[k]+1, p+1
			for q < f.rowPtr[k+1] && r < end {
				switch cq, cr := f.colIdx[q], f.colIdx[r]; {
				case cq < cr:
					q++
				case cq > cr:
					r++
				default:
					f.val[r] -= lik * f.val[q]
					q++
					r++
				}
			}
		}
		d := f.val[f.diag[i]]
		if d == 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, ErrILUPivot
		}
		f.val[f.diag[i]] = 1 / d
	}
	return f, nil
}

// Apply computes z = (L·U)⁻¹ r by a forward sweep through L and a
// backward sweep through U. It allocates nothing; r and z may alias.
//
// Each sweep is one chain of dependent rows, so its speed is set by
// latency, not bandwidth. In natural order a row's last lower entry is
// usually column i−1 and its first upper entry column i+1: the value
// the sweep wrote one row earlier. That value is carried in a register
// (prev, next) instead of being stored and reloaded from z, which takes
// a store-to-load round trip off every row of the chain. Each row still
// subtracts its entries in ascending column order, so z is bitwise the
// plain row loop's; a row without that neighbour runs the plain loop.
func (f *ILU0) Apply(r, z []float64) {
	rowPtr, colIdx, val, diag := f.rowPtr, f.colIdx, f.val, f.diag
	n := len(diag)
	prev := 0.0 // z[i-1]
	for i := 0; i < n; i++ {
		s := r[i]
		lo, d := rowPtr[i], diag[i]
		if d > lo && colIdx[d-1] == i-1 {
			for p := lo; p < d-1; p++ {
				s -= val[p] * z[colIdx[p]]
			}
			s -= val[d-1] * prev
		} else {
			for p := lo; p < d; p++ {
				s -= val[p] * z[colIdx[p]]
			}
		}
		z[i] = s
		prev = s
	}
	next := 0.0 // z[i+1]
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		d, hi := diag[i], rowPtr[i+1]
		p := d + 1
		if p < hi && colIdx[p] == i+1 {
			s -= val[p] * next
			p++
		}
		for ; p < hi; p++ {
			s -= val[p] * z[colIdx[p]]
		}
		s *= val[d]
		z[i] = s
		next = s
	}
}
