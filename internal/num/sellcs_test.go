package num

import (
	"math"
	"math/rand"
	"testing"
)

// skewedCSR builds a deterministic random sparse matrix with skewed row
// lengths: most rows short, occasional long rows, some empty — the
// shape that stresses the σ-window sort and the prefix kernel.
func skewedCSR(rng *rand.Rand, rows, cols int) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		nnz := rng.Intn(6)
		if rng.Intn(10) == 0 {
			nnz = rng.Intn(cols) // occasional near-dense row
		}
		for k := 0; k < nnz; k++ {
			// Duplicates are fine: COO merges them.
			c.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
	}
	return c.ToCSR()
}

// TestSELLMatchesCSRBitwise pins the format's core contract: for any
// matrix, SELL-C-σ MulVec produces bit-for-bit the serial CSR result —
// same per-row summation order, padding never touched.
func TestSELLMatchesCSRBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][2]int{
		{1, 1}, {7, 5}, {31, 31}, {32, 32}, {33, 17}, // partial / exact / spill slices
		{256, 256}, {1000, 300},
	}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		a := skewedCSR(rng, rows, cols)
		s := NewSELLCS(a)
		if s == nil {
			t.Fatalf("%dx%d: NewSELLCS returned nil", rows, cols)
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		mulVecRange(a, x, want, 0, rows)
		got := make([]float64, rows)
		for i := range got {
			got[i] = math.NaN() // every slot must be written, even empty rows
		}
		s.MulVec(x, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d row %d: SELL %v != CSR %v", rows, cols, i, got[i], want[i])
			}
		}
		if s.NNZ() != a.NNZ() {
			t.Fatalf("%dx%d: NNZ %d != %d", rows, cols, s.NNZ(), a.NNZ())
		}
		if pr := s.PaddingRatio(); pr < 1 && a.NNZ() > 0 {
			t.Fatalf("%dx%d: padding ratio %v < 1", rows, cols, pr)
		}
	}
}

// TestSELLStructure checks the layout invariants the kernel relies on:
// Perm is a permutation local to each σ window, and RowLen is
// non-increasing within every slice.
func TestSELLStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := skewedCSR(rng, 700, 80)
	s := NewSELLCS(a)
	seen := make([]bool, a.Rows)
	for pos, row := range s.Perm {
		if seen[row] {
			t.Fatalf("row %d appears twice in Perm", row)
		}
		seen[row] = true
		if w := pos / sellSigma; int(row)/sellSigma != w {
			t.Fatalf("Perm[%d]=%d escaped its σ window %d", pos, row, w)
		}
	}
	for pos := 1; pos < a.Rows; pos++ {
		if pos%SellC == 0 {
			continue // slice boundary: no ordering constraint across it
		}
		if s.RowLen[pos] > s.RowLen[pos-1] {
			t.Fatalf("RowLen not non-increasing inside slice at pos %d: %d > %d",
				pos, s.RowLen[pos], s.RowLen[pos-1])
		}
	}
}

// TestSELLParallelMatchesSerial pins slice independence: the product
// assembled from disjoint slice ranges, as a slice-parallel split would
// compute it, is bitwise the whole-range MulVec.
func TestSELLParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := skewedCSR(rng, 513, 513)
	s := NewSELLCS(a)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, a.Rows)
	s.MulVec(x, want)
	ns := s.numSlices()
	for _, split := range []int{1, ns / 3, ns - 1} {
		got := make([]float64, a.Rows)
		sellMulVecRange(s, x, got, 0, split)
		sellMulVecRange(s, x, got, split, ns)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("split %d, row %d: %v != %v", split, i, got[i], want[i])
			}
		}
	}
}

// paddedCSR builds an n-row matrix whose first row of every SellC-row
// slice is wide and the rest hold only a diagonal: each σ window sorts
// its wide rows into one slice, whose padding pushes PaddingRatio far
// past sellMaxPadding.
func paddedCSR(n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4)
		if i%SellC == 0 {
			for j := 0; j < 64; j++ {
				c.Add(i, (i+j+1)%n, -0.01)
			}
		}
	}
	return c.ToCSR()
}

// TestEnsureFormatPolicy pins the layout rule as a table over row count
// and padding: SELL-C-σ from sellMinRows rows up, unless the padding
// ratio exceeds sellMaxPadding, in which case the operator stays CSR
// and the fallback is counted. Small operators are never converted.
func TestEnsureFormatPolicy(t *testing.T) {
	for _, tc := range []struct {
		name         string
		a            *CSR
		wantSELL     bool
		wantFallback bool
	}{
		{"small", laplacian2D(8), false, false},
		{"below-threshold", laplacian2D(63), false, false},
		{"at-threshold", laplacian2D(64), true, false},
		{"large", laplacian2D(70), true, false},
		{"small/padded", paddedCSR(1024), false, false},
		{"large/padded", paddedCSR(4096), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conv0, fb0 := sellConversions.Value(), sellFallbacks.Value()
			tc.a.ensureFormat()
			tc.a.ensureFormat() // idempotent: converts at most once
			if got := tc.a.sell.Load() != nil; got != tc.wantSELL {
				t.Fatalf("SELL attached = %v, want %v (padding ratio %.2f)",
					got, tc.wantSELL, NewSELLCS(tc.a).PaddingRatio())
			}
			if d := sellConversions.Value() - conv0; (d == 1) != tc.wantSELL || d > 1 {
				t.Fatalf("conversion counter moved by %d", d)
			}
			if d := sellFallbacks.Value() - fb0; (d > 0) != tc.wantFallback {
				t.Fatalf("fallback counter moved by %d, want fallback=%v", d, tc.wantFallback)
			}
		})
	}
}

// FuzzSELLRoundTrip throws arbitrary sparse structures (empty rows,
// dense rows, duplicates, single-slice shapes) at the CSR -> SELL-C-σ
// conversion and checks MulVec agrees with the serial CSR kernel within
// 1e-15 relative — in fact bit-for-bit, which is the stronger contract
// the solvers' warm-start determinism rides on.
func FuzzSELLRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{})                            // minimal, all-empty
	f.Add(uint8(40), uint8(3), []byte{0, 0, 1, 5, 2, 200})         // empty + short rows, two slices
	f.Add(uint8(5), uint8(5), []byte{0, 0, 1, 0, 1, 2, 0, 2, 3})   // single slice
	f.Add(uint8(200), uint8(200), []byte{9, 9, 9, 9, 8, 7, 1, 2})  // spill shape
	f.Add(uint8(33), uint8(2), []byte{1, 0, 1, 1, 1, 0, 32, 1, 9}) // dense row + duplicate
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		r := int(rows)%300 + 1
		c := int(cols)%300 + 1
		coo := NewCOO(r, c)
		for k := 0; k+2 < len(data); k += 3 {
			i := int(data[k]) % r
			j := int(data[k+1]) % c
			v := float64(int8(data[k+2]))
			if v == 0 {
				v = 1
			}
			coo.Add(i, j, v/3)
		}
		a := coo.ToCSR()
		s := NewSELLCS(a)
		if s == nil {
			t.Fatal("NewSELLCS returned nil for a small matrix")
		}
		if s.NNZ() != a.NNZ() {
			t.Fatalf("NNZ %d != %d", s.NNZ(), a.NNZ())
		}
		x := make([]float64, c)
		for i := range x {
			x[i] = float64((i*7)%13) - 6.5
		}
		want := make([]float64, r)
		mulVecRange(a, x, want, 0, r)
		got := make([]float64, r)
		for i := range got {
			got[i] = math.NaN()
		}
		s.MulVec(x, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("row %d: SELL %v != CSR %v", i, got[i], want[i])
			}
		}
	})
}
