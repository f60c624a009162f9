package num

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// stamp is one COO triplet.
type stamp struct {
	i, j int
	v    float64
}

// checkToCSR converts the stamps and checks the CSR against a dense
// accumulation done in stamp order, bitwise, plus the structural
// invariants: RowPtr monotone from 0 to NNZ, columns strictly ascending
// within each row (so NewILU0 never reports ErrILUPattern), and NNZ
// equal to the number of distinct positions that received a nonzero
// stamp.
func checkToCSR(t *testing.T, rows, cols int, stamps []stamp) {
	t.Helper()
	c := NewCOO(rows, cols)
	dense := make([]float64, rows*cols)
	distinct := map[[2]int]bool{}
	for _, s := range stamps {
		c.Add(s.i, s.j, s.v)
		dense[s.i*cols+s.j] += s.v
		if s.v != 0 {
			distinct[[2]int{s.i, s.j}] = true
		}
	}
	m := c.ToCSR()
	if m.Rows != rows || m.Cols != cols {
		t.Fatalf("shape %dx%d, want %dx%d", m.Rows, m.Cols, rows, cols)
	}
	if len(m.RowPtr) != rows+1 || m.RowPtr[0] != 0 || m.RowPtr[rows] != m.NNZ() || len(m.ColIdx) != m.NNZ() {
		t.Fatalf("RowPtr %v inconsistent with NNZ %d (len ColIdx %d)", m.RowPtr, m.NNZ(), len(m.ColIdx))
	}
	if m.NNZ() != len(distinct) {
		t.Fatalf("NNZ = %d, want %d distinct positions", m.NNZ(), len(distinct))
	}
	got := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			t.Fatalf("RowPtr not monotone at row %d: %v", i, m.RowPtr)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if k > m.RowPtr[i] && m.ColIdx[k] <= m.ColIdx[k-1] {
				t.Fatalf("row %d: columns not strictly ascending: %v", i, m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]])
			}
			got[i*cols+m.ColIdx[k]] = m.Val[k]
		}
	}
	for p := range dense {
		if math.Float64bits(got[p]) != math.Float64bits(dense[p]) {
			t.Fatalf("entry (%d,%d) = %v, dense accumulation %v", p/cols, p%cols, got[p], dense[p])
		}
	}
	if rows == cols {
		if _, err := NewILU0(m); errors.Is(err, ErrILUPattern) {
			t.Fatalf("NewILU0 rejected the pattern: %v", err)
		}
	}
}

func TestCOOToCSRTable(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
		stamps     []stamp
	}{
		{"empty builder", 3, 4, nil},
		{"only zero stamps", 2, 2, []stamp{{0, 0, 0}, {1, 1, 0}}},
		{"empty rows between", 5, 3, []stamp{{1, 2, 1}, {1, 0, 2}, {4, 1, 3}}},
		{"descending columns", 1, 6, []stamp{{0, 5, 1}, {0, 4, 2}, {0, 3, 3}, {0, 0, 4}}},
		{"duplicates in stamp order", 2, 2, []stamp{{0, 0, 0.1}, {0, 0, 0.2}, {0, 0, 0.3}, {1, 1, 1e16}, {1, 1, 1}, {1, 1, -1e16}}},
		{"cancelling duplicates keep the entry", 2, 2, []stamp{{0, 1, 2}, {0, 1, -2}, {1, 0, 1}}},
		{"rows out of order", 4, 4, []stamp{{3, 3, 1}, {0, 0, 2}, {2, 1, 3}, {0, 3, 4}, {3, 0, 5}, {2, 1, 6}}},
		{"long row", 2, 100, func() []stamp {
			var s []stamp
			for k := 0; k < 150; k++ {
				s = append(s, stamp{0, (k * 37) % 100, float64(k%7) - 3})
			}
			return append(s, stamp{1, 1, 1})
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) { checkToCSR(t, tc.rows, tc.cols, tc.stamps) })
	}
}

// FuzzCOOToCSR throws random shapes and stamp sequences (any order,
// duplicates, zero values, empty rows) at ToCSR and checks it against a
// dense accumulation in stamp order.
func FuzzCOOToCSR(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{})
	f.Add(uint8(4), uint8(4), []byte{3, 3, 1, 0, 0, 0, 3, 3, 255, 1, 2, 7})
	f.Add(uint8(1), uint8(60), []byte{0, 50, 1, 0, 40, 2, 0, 30, 3, 0, 50, 4, 0, 20, 5})
	f.Add(uint8(30), uint8(2), []byte{29, 1, 9, 0, 0, 9, 29, 1, 128})
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		r := int(rows)%64 + 1
		c := int(cols)%64 + 1
		var stamps []stamp
		for k := 0; k+2 < len(data); k += 3 {
			// int8/7 spreads the values over inexact binary fractions,
			// so a summation order change would show in the bits.
			stamps = append(stamps, stamp{int(data[k]) % r, int(data[k+1]) % c, float64(int8(data[k+2])) / 7})
		}
		checkToCSR(t, r, c, stamps)
	})
}

func TestCOOGrowReservesCapacity(t *testing.T) {
	c := NewCOO(4, 4)
	c.Grow(10)
	capBefore := c.Cap()
	if capBefore < 10 || c.NNZ() != 0 {
		t.Fatalf("Grow(10): Cap %d NNZ %d", capBefore, c.NNZ())
	}
	for k := 0; k < 10; k++ {
		c.Add(k%4, (k*3)%4, 1)
	}
	if c.Cap() != capBefore {
		t.Fatalf("stamping within the reservation regrew: Cap %d -> %d", capBefore, c.Cap())
	}
}

func TestCOOToCSR(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 1)
	c.Add(1, 1, 2)
	c.Add(1, 1, 3) // duplicate: must merge to 5
	c.Add(2, 0, 4)
	c.Add(0, 2, 6)
	c.Add(1, 0, 0) // explicit zero: dropped
	m := c.ToCSR()
	if m.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	if m.At(1, 1) != 5 {
		t.Fatalf("merged entry = %g, want 5", m.At(1, 1))
	}
	if m.At(0, 2) != 6 || m.At(2, 0) != 4 || m.At(0, 0) != 1 {
		t.Fatal("entries misplaced")
	}
	if m.At(2, 2) != 0 {
		t.Fatal("missing entry should read 0")
	}
}

func TestCSRColumnOrderWithinRow(t *testing.T) {
	c := NewCOO(1, 5)
	c.Add(0, 4, 1)
	c.Add(0, 1, 2)
	c.Add(0, 3, 3)
	m := c.ToCSR()
	for k := 1; k < m.NNZ(); k++ {
		if m.ColIdx[k] <= m.ColIdx[k-1] {
			t.Fatalf("column indices not sorted: %v", m.ColIdx)
		}
	}
}

func TestCSRMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, m = 17, 13
	d := NewDense(n, m)
	c := NewCOO(n, m)
	for k := 0; k < 60; k++ {
		i, j := rng.Intn(n), rng.Intn(m)
		v := rng.NormFloat64()
		d.Add(i, j, v)
		c.Add(i, j, v)
	}
	s := c.ToCSR()
	x := make([]float64, m)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, n)
	y2 := make([]float64, n)
	d.MulVec(x, y1)
	s.MulVec(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("row %d: dense %g vs sparse %g", i, y1[i], y2[i])
		}
	}
}

func TestCSRDiag(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 2)
	c.Add(2, 2, -1)
	c.Add(1, 0, 9) // off-diagonal
	d := c.ToCSR().Diag()
	if d[0] != 2 || d[1] != 0 || d[2] != -1 {
		t.Fatalf("Diag = %v", d)
	}
}

func TestCSRIsSymmetric(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 1, 3)
	c.Add(1, 0, 3)
	c.Add(0, 0, 1)
	if !c.ToCSR().IsSymmetric(1e-14) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	c2 := NewCOO(2, 2)
	c2.Add(0, 1, 3)
	if c2.ToCSR().IsSymmetric(1e-14) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	rect := NewCOO(2, 3).ToCSR()
	if rect.IsSymmetric(1e-14) {
		t.Fatal("rectangular matrix cannot be symmetric")
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range stamp")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}
