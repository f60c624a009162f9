package num

import (
	"math"
	"math/rand"
	"testing"
)

// The plain one-row loops below are the references the latency-aware
// kernels must match bit for bit: mulVecRowLoop for CSR.MulVec's
// four-row walk, applyRowLoop for ILU0.Apply's register-carried sweeps.

// mulVecRowLoop is y = m*x one row at a time, each row summed in
// ascending column order.
func mulVecRowLoop(m *CSR, x, y []float64) {
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// applyRowLoop is z = (L·U)⁻¹ r with every neighbour read back from z.
func (f *ILU0) applyRowLoop(r, z []float64) {
	n := len(f.diag)
	for i := 0; i < n; i++ {
		s := r[i]
		for p := f.rowPtr[i]; p < f.diag[i]; p++ {
			s -= f.val[p] * z[f.colIdx[p]]
		}
		z[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for p := f.diag[i] + 1; p < f.rowPtr[i+1]; p++ {
			s -= f.val[p] * z[f.colIdx[p]]
		}
		z[i] = s * f.val[f.diag[i]]
	}
}

// checkMulVec requires a.MulVec to write every y slot, bitwise equal to
// the row loop.
func checkMulVec(t *testing.T, a *CSR, x []float64) {
	t.Helper()
	want := make([]float64, a.Rows)
	mulVecRowLoop(a, x, want)
	got := make([]float64, a.Rows)
	for i := range got {
		got[i] = math.NaN() // every slot must be written, empty rows too
	}
	a.MulVec(x, got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%dx%d row %d: MulVec %v, row loop %v", a.Rows, a.Cols, i, got[i], want[i])
		}
	}
}

// checkApply requires f.Apply to equal the row loop bitwise, also when
// r and z alias.
func checkApply(t *testing.T, f *ILU0, r []float64) {
	t.Helper()
	want := make([]float64, len(r))
	f.applyRowLoop(r, want)
	got := make([]float64, len(r))
	f.Apply(r, got)
	alias := append([]float64(nil), r...)
	f.Apply(alias, alias)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: Apply %v, row loop %v", i, got[i], want[i])
		}
		if math.Float64bits(alias[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: aliased Apply %v, row loop %v", i, alias[i], want[i])
		}
	}
}

// skewedCSR builds a deterministic random sparse matrix with skewed row
// lengths: most rows short, some empty, occasional near-dense rows, so
// the four rows of a group rarely share a length.
func skewedCSR(rng *rand.Rand, rows, cols int) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		nnz := rng.Intn(6)
		if rng.Intn(10) == 0 {
			nnz = rng.Intn(cols)
		}
		for k := 0; k < nnz; k++ {
			c.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
	}
	return c.ToCSR()
}

// TestCSRMulVecMatchesRowLoop: the four-row product equals the row
// loop bitwise on ragged, empty and rectangular operators, row counts
// on both sides of a multiple of four, and the stencils the solvers
// run.
func TestCSRMulVecMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ops []*CSR
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {4, 4}, {7, 5}, {8, 3}, {33, 17}, {256, 256}, {1001, 300}} {
		ops = append(ops, skewedCSR(rng, sh[0], sh[1]))
	}
	ops = append(ops, NewCOO(6, 9).ToCSR(), laplacian2D(31), stack3D(13, 11, 3, 6), thermalStampPattern(22, 16, 4).ToCSR())
	for _, a := range ops {
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		checkMulVec(t, a, x)
	}
}

// FuzzCSRMulVec throws arbitrary sparse structures (empty rows, dense
// rows, duplicates, rectangular shapes, any row count) at CSR.MulVec
// and requires the row loop's result bit for bit, the contract the
// solvers' warm starts and cross-path agreement ride on.
func FuzzCSRMulVec(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{})                            // minimal, all-empty
	f.Add(uint8(40), uint8(3), []byte{0, 0, 1, 5, 2, 200})         // empty + short rows
	f.Add(uint8(5), uint8(5), []byte{0, 0, 1, 0, 1, 2, 0, 2, 3})   // one group + a remainder row
	f.Add(uint8(200), uint8(200), []byte{9, 9, 9, 9, 8, 7, 1, 2})  // mostly empty
	f.Add(uint8(33), uint8(2), []byte{1, 0, 1, 1, 1, 0, 32, 1, 9}) // duplicate + last-row entry
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		r := int(rows)%300 + 1
		c := int(cols)%300 + 1
		coo := NewCOO(r, c)
		for k := 0; k+2 < len(data); k += 3 {
			// int8/3 spreads the values over inexact binary fractions,
			// so a summation order change would show in the bits.
			v := float64(int8(data[k+2]))
			if v == 0 {
				v = 1
			}
			coo.Add(int(data[k])%r, int(data[k+1])%c, v/3)
		}
		x := make([]float64, c)
		for i := range x {
			x[i] = float64((i*7)%13)/3 - 2.1
		}
		checkMulVec(t, coo.ToCSR(), x)
	})
}

// dominantCSR builds an n×n strictly diagonally dominant matrix from
// fuzz bytes: each triple stamps an off-diagonal entry, and a byte's
// low bit decides whether row i also couples to i−1 and i+1, so rows
// with and without the carried neighbour mix.
func dominantCSR(n int, data []byte) *CSR {
	c := NewCOO(n, n)
	sum := make([]float64, n)
	add := func(i, j int, v float64) {
		if i == j {
			return
		}
		c.Add(i, j, v)
		sum[i] += math.Abs(v)
	}
	for i := 0; i < n; i++ {
		if len(data) > 0 && data[i%len(data)]&1 == 1 {
			continue
		}
		if i > 0 {
			add(i, i-1, -1.3-0.1*float64(i%5))
		}
		if i < n-1 {
			add(i, i+1, -0.7+0.05*float64(i%3))
		}
	}
	for k := 0; k+2 < len(data); k += 3 {
		v := float64(int8(data[k+2]))
		if v == 0 {
			v = 1
		}
		add(int(data[k])%n, int(data[k+1])%n, v/7)
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, 1+sum[i]+0.1*float64(i%3))
	}
	return c.ToCSR()
}

// FuzzILU0Apply: on any diagonally dominant pattern, register-carried
// sweeps equal the row loop bitwise, including rows whose last lower or
// first upper entry is not the adjacent row, and with r and z aliased.
func FuzzILU0Apply(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(2), []byte{1})
	f.Add(uint8(9), []byte{0, 1, 0, 0, 3, 7})                 // one row without neighbours
	f.Add(uint8(40), []byte{0, 39, 200, 39, 0, 9, 5, 6, 128}) // far couplings
	f.Add(uint8(64), []byte{1, 1, 0, 12, 11, 70, 11, 12, 30}) // neighbours only from the stamps
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := int(size)%200 + 1
		fac, err := NewILU0(dominantCSR(n, data))
		if err != nil {
			t.Fatalf("diagonally dominant matrix failed to factor: %v", err)
		}
		r := make([]float64, n)
		for i := range r {
			r[i] = math.Sin(0.37*float64(i)) + 0.5
		}
		checkApply(t, fac, r)
	})
}

// TestILU0ApplyMatchesRowLoop: on the stencils the solvers factor, the
// sweeps equal the row loop bitwise. Grid operators in natural order
// hold both kinds of row: the first cell of each grid line has no
// lower neighbour at column i−1, and the last none at i+1.
func TestILU0ApplyMatchesRowLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *CSR
	}{
		{"tridiagonal", tridiagNonsym(97)},
		{"thermal-pattern", thermalStampPattern(22, 16, 4).ToCSR()},
		{"laplacian", laplacian2D(17)},
		{"stack", stack3D(9, 7, 3, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fac, err := NewILU0(tc.a)
			if err != nil {
				t.Fatal(err)
			}
			r := make([]float64, tc.a.Rows)
			for i := range r {
				r[i] = float64(i%13)/3 - 2
			}
			checkApply(t, fac, r)
		})
	}
}
