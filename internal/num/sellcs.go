package num

import "math"

// This file implements the SELL-C-σ (sliced ELLPACK) sparse layout for
// the SpMV hot path. Rows are grouped into slices of C consecutive
// (sorted) rows; each slice stores its entries column-major, padded to
// the slice's widest row, so four neighboring rows' entries at the
// same column step sit on one cache line and can feed four independent
// register accumulators — the FP-add latency that serializes the CSR
// gather's single per-row sum chain is overlapped four-wide, and the
// column indices shrink to int32, cutting index traffic in half.
// Sorting rows by descending length inside a σ-row window (σ a small
// multiple of C) keeps rows of similar length in the same slice, which
// bounds the padding, while the permutation stays local enough that
// the x-vector access pattern of the finite-volume operators (banded,
// grid-ordered) survives.
//
// Two properties are load-bearing:
//
//   - Bitwise identity with CSR. Within a slice rows are sorted by
//     non-increasing length, so a four-row group's shortest row is its
//     last: the shared four-wide loop runs to that length and never
//     reads padding, and the longer rows finish on per-row tails. Each
//     row's register accumulates its entries in exactly CSR's
//     ascending-column order, so y is bit-for-bit the serial CSR
//     result (the contract every solver's warm-start and fallback
//     logic already relies on).
//
//   - Zero allocation on the multiply path. The accumulators are
//     registers. All allocation happens in the constructors, which
//     run once at solver/hierarchy setup (escape-check pins this).
//
// A SELLCS is a snapshot of its source CSR: later mutation of the
// source is not observed.

const (
	// SellC is the slice height: the number of rows that share one
	// padded column-major slice, and the width of the kernel's stack
	// accumulator. 32 rows keep the accumulator (256 B) comfortably in
	// registers/L1 while giving the inner loop enough independent sums
	// to hide the x-gather latency.
	SellC = 32
	// sellSigma is the row-sorting window: rows are sorted by
	// descending length only within σ = 8·C consecutive rows. A full
	// sort would minimize padding but scatter grid neighbours across
	// the matrix (ruining x locality); σ-windowed sorting bounds the
	// permutation distance to 256 rows while still packing
	// similar-length rows into common slices.
	sellSigma = 8 * SellC
)

// SELLCS is a SELL-C-σ matrix: the mirror attached to a CSR at solver
// setup (see ensureFormat) and consulted by CSR.MulVec.
type SELLCS struct {
	Rows, Cols int
	// Perm maps sorted position -> original row index.
	Perm []int32
	// RowLen is the stored-entry count per sorted position,
	// non-increasing within each slice.
	RowLen []int32
	// SlicePtr is the per-slice start offset into ColIdx/Val
	// (length numSlices+1).
	SlicePtr []int
	// ColIdx/Val hold the padded column-major slices: the entry t of
	// the slice's row r lives at SlicePtr[s] + t*cnt + r, cnt being the
	// slice's row count. Padding slots are zero and never read.
	ColIdx []int32
	Val    []float64

	nnz int
}

// NewSELLCS converts a CSR into SELL-C-σ form. It returns nil when the
// dimensions exceed int32 indexing. The conversion is unconditional —
// the padding-overhead rule lives in attachSELL, which decides whether
// to attach the result.
func NewSELLCS(a *CSR) *SELLCS {
	if a.Cols > math.MaxInt32 || a.Rows > math.MaxInt32 {
		return nil
	}
	rows := a.Rows
	lens := make([]int32, rows)
	for i := 0; i < rows; i++ {
		lens[i] = int32(a.RowPtr[i+1] - a.RowPtr[i])
	}
	perm := make([]int32, rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	// σ-window sort, descending by row length, stable (equal-length
	// rows keep grid order, preserving x locality). Insertion sort: the
	// window is at most sellSigma rows and finite-volume operators have
	// near-constant row lengths, so the passes are near-linear; being
	// loop-only also keeps this file free of heap-escaping closures,
	// which the escape-check gate watches for.
	for w := 0; w < rows; w += sellSigma {
		end := w + sellSigma
		if end > rows {
			end = rows
		}
		for i := w + 1; i < end; i++ {
			p := perm[i]
			l := lens[p]
			j := i - 1
			for j >= w && lens[perm[j]] < l {
				perm[j+1] = perm[j]
				j--
			}
			perm[j+1] = p
		}
	}
	nSlices := (rows + SellC - 1) / SellC
	slicePtr := make([]int, nSlices+1)
	padded := 0
	for s := 0; s < nSlices; s++ {
		base := s * SellC
		cnt := rows - base
		if cnt > SellC {
			cnt = SellC
		}
		slicePtr[s] = padded
		padded += int(lens[perm[base]]) * cnt // widest row first after the sort
	}
	slicePtr[nSlices] = padded

	rowLen := make([]int32, rows)
	colIdx := make([]int32, padded)
	val := make([]float64, padded)
	for s := 0; s < nSlices; s++ {
		base := s * SellC
		cnt := rows - base
		if cnt > SellC {
			cnt = SellC
		}
		off := slicePtr[s]
		for r := 0; r < cnt; r++ {
			row := int(perm[base+r])
			rowLen[base+r] = lens[row]
			k0 := a.RowPtr[row]
			for t := 0; t < int(lens[row]); t++ {
				colIdx[off+t*cnt+r] = int32(a.ColIdx[k0+t])
				val[off+t*cnt+r] = a.Val[k0+t]
			}
		}
	}
	return &SELLCS{
		Rows: rows, Cols: a.Cols,
		Perm: perm, RowLen: rowLen, SlicePtr: slicePtr,
		ColIdx: colIdx, Val: val,
		nnz: a.NNZ(),
	}
}

// NNZ returns the number of stored (non-padding) entries.
func (m *SELLCS) NNZ() int { return m.nnz }

// PaddingRatio reports padded storage over stored entries (>= 1; 1 is
// padding-free). It is the operational row-length-variance measure the
// layout rule gates on: after the σ-window sort, only residual
// length spread inside a slice costs padding.
func (m *SELLCS) PaddingRatio() float64 {
	if m.nnz == 0 {
		return 1
	}
	return float64(len(m.Val)) / float64(m.nnz)
}

func (m *SELLCS) numSlices() int { return (m.Rows + SellC - 1) / SellC }

// MulVec computes y = m*x, bitwise identical to the source CSR's
// row-loop MulVec.
func (m *SELLCS) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(ErrShape)
	}
	spmvRowsTraversed.Add(uint64(m.Rows))
	sellMulVecRange(m, x, y, 0, m.numSlices())
}

// sellMulVecRange multiplies the slices [sLo, sHi). Rows are walked in
// groups of four with one register accumulator each: at a given column
// step t the four rows' entries are adjacent in the column-major slice
// (one cache line), and the four sums are independent dependency
// chains, so the FP-add latency that serializes the CSR gather's
// single per-row chain is overlapped four-wide. Each register still
// accumulates its row's entries in ascending column order, so every
// row's sum is bit-for-bit the serial CSR result. Lengths are
// non-increasing inside a slice, so the group's fourth row has the
// shortest length and the shared four-wide loop never reads padding;
// the longer rows finish on their own strided tail.
func sellMulVecRange(m *SELLCS, x, y []float64, sLo, sHi int) {
	vals, cols := m.Val, m.ColIdx
	rowLen, perm := m.RowLen, m.Perm
	for s := sLo; s < sHi; s++ {
		base := s * SellC
		cnt := m.Rows - base
		if cnt > SellC {
			cnt = SellC
		}
		off := m.SlicePtr[s]
		g := 0
		for ; g+4 <= cnt; g += 4 {
			l0 := int(rowLen[base+g])
			l1 := int(rowLen[base+g+1])
			l2 := int(rowLen[base+g+2])
			l3 := int(rowLen[base+g+3])
			var s0, s1, s2, s3 float64
			k := off + g
			t := 0
			for ; t+2 <= l3; t += 2 { // two column steps per trip: same
				k2 := k + cnt // per-row add order, half the loop overhead
				s0 += vals[k] * x[cols[k]]
				s1 += vals[k+1] * x[cols[k+1]]
				s2 += vals[k+2] * x[cols[k+2]]
				s3 += vals[k+3] * x[cols[k+3]]
				s0 += vals[k2] * x[cols[k2]]
				s1 += vals[k2+1] * x[cols[k2+1]]
				s2 += vals[k2+2] * x[cols[k2+2]]
				s3 += vals[k2+3] * x[cols[k2+3]]
				k = k2 + cnt
			}
			if t < l3 {
				s0 += vals[k] * x[cols[k]]
				s1 += vals[k+1] * x[cols[k+1]]
				s2 += vals[k+2] * x[cols[k+2]]
				s3 += vals[k+3] * x[cols[k+3]]
			}
			if l0 > l3 { // ragged tails, rare on stencil operators
				s0 = sellRowTail(vals, cols, x, s0, off+g, cnt, l3, l0)
				if l1 > l3 {
					s1 = sellRowTail(vals, cols, x, s1, off+g+1, cnt, l3, l1)
				}
				if l2 > l3 {
					s2 = sellRowTail(vals, cols, x, s2, off+g+2, cnt, l3, l2)
				}
			}
			y[perm[base+g]] = s0
			y[perm[base+g+1]] = s1
			y[perm[base+g+2]] = s2
			y[perm[base+g+3]] = s3
		}
		for ; g < cnt; g++ { // remainder rows of a partial final slice
			y[perm[base+g]] = sellRowTail(vals, cols, x, 0, off+g, cnt, 0, int(rowLen[base+g]))
		}
	}
}

// sellRowTail accumulates one row's entries for column steps [t0, t1)
// onto s, striding through the column-major slice.
func sellRowTail(vals []float64, cols []int32, x []float64, s float64, base, stride, t0, t1 int) float64 {
	k := base + t0*stride
	for t := t0; t < t1; t++ {
		s += vals[k] * x[cols[k]]
		k += stride
	}
	return s
}
