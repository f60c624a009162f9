package num

import "math"

// This file holds the serial kernel loops behind the BLAS-1 vector
// kernels (Dot, Norm2, Axpy) and the sparse matrix-vector products.
// Every kernel runs on the calling goroutine: concurrency comes from
// independent solves (the engine's worker pool, concurrent sessions),
// never from threads inside one SpMV, so a given operand always reduces
// in the same order and every answer is bitwise reproducible.

// KernelThreads reports the goroutines one kernel call uses: always 1.
// It is kept only for perfbench, which stamps it on its info line.
func KernelThreads() int { return 1 }

// Kernel loops over the row range [lo, hi).

// mulVecRange walks the rows four at a time with one register
// accumulator each. A row's sum is one chain of dependent FP adds, so
// a one-row loop waits on the add latency at every entry; four
// independent chains overlap it. Each row still adds its entries in
// ascending column order: the four run in step for the group's shortest
// row, then each finishes its own tail, so every y[i] is bitwise the
// one-row loop's.
func mulVecRange(m *CSR, x, y []float64, lo, hi int) {
	rowPtr, colIdx, val := m.RowPtr, m.ColIdx, m.Val
	i := lo
	for ; i+4 <= hi; i += 4 {
		p0, p1, p2, p3, p4 := rowPtr[i], rowPtr[i+1], rowPtr[i+2], rowPtr[i+3], rowPtr[i+4]
		l := min(p1-p0, p2-p1, p3-p2, p4-p3)
		var s0, s1, s2, s3 float64
		for t := 0; t < l; t++ {
			s0 += val[p0+t] * x[colIdx[p0+t]]
			s1 += val[p1+t] * x[colIdx[p1+t]]
			s2 += val[p2+t] * x[colIdx[p2+t]]
			s3 += val[p3+t] * x[colIdx[p3+t]]
		}
		y[i] = rowTail(val, colIdx, x, s0, p0+l, p1)
		y[i+1] = rowTail(val, colIdx, x, s1, p1+l, p2)
		y[i+2] = rowTail(val, colIdx, x, s2, p2+l, p3)
		y[i+3] = rowTail(val, colIdx, x, s3, p3+l, p4)
	}
	for ; i < hi; i++ {
		y[i] = rowTail(val, colIdx, x, 0, rowPtr[i], rowPtr[i+1])
	}
}

// rowTail adds the entries [lo, hi) of one row onto s, in order.
func rowTail(val []float64, colIdx []int, x []float64, s float64, lo, hi int) float64 {
	for k := lo; k < hi; k++ {
		s += val[k] * x[colIdx[k]]
	}
	return s
}

func dotRange(x, y []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += x[i] * y[i]
	}
	return s
}

// norm2Range returns the range's maximum magnitude m and the sum of
// (v/m)^2 over the range (0 if the range is all zero), so the norm is
// m*sqrt(sum) without squaring an extreme entry.
func norm2Range(x []float64, lo, hi int) (maxv, sumsq float64) {
	for i := lo; i < hi; i++ {
		if a := math.Abs(x[i]); a > maxv {
			maxv = a
		}
	}
	if maxv == 0 {
		return 0, 0
	}
	for i := lo; i < hi; i++ {
		r := x[i] / maxv
		sumsq += r * r
	}
	return maxv, sumsq
}

func axpyRange(alpha float64, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] += alpha * x[i]
	}
}

// blockRowTile is the row-tile size of the multi-RHS SpMV kernels: the
// tile's matrix entries (Val/ColIdx for ~tile rows) are replayed from
// cache for every column instead of re-streaming the whole matrix, while
// each column's x window inside a tile stays a few tens of KB. Rows are
// still visited in ascending order per column, so tiling never changes
// the per-column arithmetic.
const blockRowTile = 2048

// mulVecBlockDotRange is mulVecBlockRange restricted to active columns,
// with the per-column <x_j, y_j> reduction folded into the traversal.
// Each pap[j] accumulates in ascending row order, so for the full range
// the reduction is bitwise identical to Dot(x_j, y_j) run after a
// separate SpMV. Inactive columns keep y stale and pap zero.
func mulVecBlockDotRange(m *CSR, x, y []float64, kw int, active []bool, pap []float64, lo, hi int) {
	n := m.Cols
	for j := 0; j < kw; j++ {
		pap[j] = 0
	}
	for t := lo; t < hi; t += blockRowTile {
		tEnd := t + blockRowTile
		if tEnd > hi {
			tEnd = hi
		}
		for j := 0; j < kw; j++ {
			if !active[j] {
				continue
			}
			xs := x[j*n : (j+1)*n]
			ys := y[j*m.Rows : (j+1)*m.Rows]
			s := pap[j]
			for i := t; i < tEnd; i++ {
				v := 0.0
				for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
					v += m.Val[k] * xs[m.ColIdx[k]]
				}
				ys[i] = v
				s += xs[i] * v
			}
			pap[j] = s
		}
	}
}

// mulVecBlockRange is the multi-RHS SpMV row range: x and y hold k
// right-hand sides column-major (column j occupies x[j*n : (j+1)*n]).
// The row's index/value entries are read once into cache and then
// reused across all k columns, so the matrix stream is amortized while
// each column keeps the access pattern (and summation order) of the
// single-vector MulVec.
func mulVecBlockRange(m *CSR, x, y []float64, kw, lo, hi int) {
	n := m.Cols
	for t := lo; t < hi; t += blockRowTile {
		tEnd := t + blockRowTile
		if tEnd > hi {
			tEnd = hi
		}
		for j := 0; j < kw; j++ {
			xs := x[j*n : (j+1)*n]
			ys := y[j*m.Rows : (j+1)*m.Rows]
			for i := t; i < tEnd; i++ {
				s := 0.0
				for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
					s += m.Val[k] * xs[m.ColIdx[k]]
				}
				ys[i] = s
			}
		}
	}
}
