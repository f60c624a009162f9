package num

import (
	"math"
	"math/rand"
	"testing"
)

// TestBlockCGMatchesSequential is the determinism pin: block CG must
// produce, per column, the same iterates as a sequential per-RHS CG
// from the same guesses — to 1e-10 elementwise. The
// per-column recurrences and i-ascending strided reductions reproduce
// the sequential summation order exactly, so in practice the match is
// bitwise; 1e-10 is the contract.
func TestBlockCGMatchesSequential(t *testing.T) {
	const n, k = 48, 5
	a := laplacian2D(n)
	rng := rand.New(rand.NewSource(41))
	rows := a.Rows
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = make([]float64, rows)
		for i := range bs[j] {
			bs[j][i] = rng.NormFloat64()
		}
	}
	opt := IterOptions{Tol: 1e-10, M: NewJacobi(a)}

	// Sequential reference.
	seq := make([][]float64, k)
	for j := range seq {
		seq[j] = make([]float64, rows)
		if _, err := CG(a, bs[j], seq[j], opt); err != nil {
			t.Fatalf("sequential rhs %d: %v", j, err)
		}
	}

	// Batched: pack column-major, solve, compare.
	bb := make([]float64, rows*k)
	xx := make([]float64, rows*k)
	for j := 0; j < k; j++ {
		for i := 0; i < rows; i++ {
			bb[j*rows+i] = bs[j][i]
		}
	}
	out, err := BlockCG(a, bb, xx, k, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		for i := 0; i < rows; i++ {
			if d := math.Abs(xx[j*rows+i] - seq[j][i]); d > 1e-10 {
				t.Fatalf("rhs %d row %d: block=%g seq=%g (diff %g)", j, i, xx[j*rows+i], seq[j][i], d)
			}
		}
		if out.PerRHS[j].Residual > opt.Tol {
			t.Fatalf("rhs %d residual %g above tol", j, out.PerRHS[j].Residual)
		}
	}
}

// TestBlockCGTraversalSavings pins the amortization claim with the obs
// counter: solving k systems batched must traverse strictly fewer
// matrix rows than solving them sequentially.
func TestBlockCGTraversalSavings(t *testing.T) {
	const n, k = 48, 6
	a := laplacian2D(n)
	rows := a.Rows
	rng := rand.New(rand.NewSource(43))
	bb := make([]float64, rows*k)
	for i := range bb {
		bb[i] = rng.NormFloat64()
	}
	opt := IterOptions{Tol: 1e-10, M: NewJacobi(a)}

	seqStart := spmvRowsTraversed.Value()
	colX := make([]float64, rows)
	for j := 0; j < k; j++ {
		Fill(colX, 0)
		if _, err := CG(a, bb[j*rows:(j+1)*rows], colX, opt); err != nil {
			t.Fatal(err)
		}
	}
	seqRows := spmvRowsTraversed.Value() - seqStart

	r0 := blockRHSSolved.Value()
	blkStart := spmvRowsTraversed.Value()
	xx := make([]float64, rows*k)
	if _, err := BlockCG(a, bb, xx, k, opt, nil); err != nil {
		t.Fatal(err)
	}
	blkRows := spmvRowsTraversed.Value() - blkStart
	if d := blockRHSSolved.Value() - r0; d != k {
		t.Fatalf("blockcg rhs counter moved by %d, want %d", d, k)
	}
	if blkRows >= seqRows {
		t.Fatalf("block traversed %d rows vs %d sequential, want fewer", blkRows, seqRows)
	}
	t.Logf("rows traversed: seq=%d block=%d (%.1fx fewer)", seqRows, blkRows, float64(seqRows)/float64(blkRows))
}

// TestBlockCGConvergenceFreeze: columns that converge early must stop
// counting iterations while the block keeps running the others.
func TestBlockCGConvergenceFreeze(t *testing.T) {
	const n = 32
	a := laplacian2D(n)
	rows := a.Rows
	const k = 3
	bb := make([]float64, rows*k)
	// Column 0: zero RHS (converges at iteration 0 with x=0).
	// Column 1: a smooth RHS. Column 2: rough random.
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < rows; i++ {
		bb[1*rows+i] = 1
		bb[2*rows+i] = rng.NormFloat64()
	}
	xx := make([]float64, rows*k)
	out, err := BlockCG(a, bb, xx, k, IterOptions{Tol: 1e-10, M: NewJacobi(a)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.PerRHS[0].Iterations != 0 {
		t.Fatalf("zero-RHS column reported %d iterations, want 0", out.PerRHS[0].Iterations)
	}
	for i := 0; i < rows; i++ {
		if xx[i] != 0 {
			t.Fatal("zero-RHS column got a nonzero solution")
		}
	}
	if out.PerRHS[1].Iterations >= out.PerRHS[2].Iterations {
		t.Fatalf("smooth column (%d iters) should freeze before rough column (%d iters)",
			out.PerRHS[1].Iterations, out.PerRHS[2].Iterations)
	}
	if out.Iterations != out.PerRHS[2].Iterations {
		t.Fatalf("block iterations %d, want slowest column's %d", out.Iterations, out.PerRHS[2].Iterations)
	}
}

// TestSolveBlock covers the SparseSolver entry: symmetric systems run
// batched block CG through the cached preconditioner, and the
// nonsymmetric degradation still returns correct per-column solutions.
func TestSolveBlock(t *testing.T) {
	const n = 32
	a := laplacian2D(n)
	rows := a.Rows
	const k = 4
	rng := rand.New(rand.NewSource(53))
	bb := make([]float64, rows*k)
	for i := range bb {
		bb[i] = rng.NormFloat64()
	}
	s := NewSparseSolverSymmetric(a, true, IterOptions{Tol: 1e-10})
	xx := make([]float64, rows*k)
	if _, err := s.SolveBlock(bb, xx, k); err != nil {
		t.Fatal(err)
	}
	res := make([]float64, rows)
	for j := 0; j < k; j++ {
		a.MulVec(xx[j*rows:(j+1)*rows], res)
		worst := 0.0
		for i := 0; i < rows; i++ {
			if d := math.Abs(res[i] - bb[j*rows+i]); d > worst {
				worst = d
			}
		}
		if worst > 1e-7 {
			t.Fatalf("rhs %d residual inf-norm %g", j, worst)
		}
	}

	// Nonsymmetric path: advection-like upwind operator.
	c := NewCOO(rows, rows)
	for i := 0; i < rows; i++ {
		c.Add(i, i, 4)
		if i > 0 {
			c.Add(i, i-1, -2)
		}
		if i < rows-1 {
			c.Add(i, i+1, -1)
		}
	}
	ns := c.ToCSR()
	sn := NewSparseSolverSymmetric(ns, false, IterOptions{Tol: 1e-10})
	Fill(xx, 0)
	if _, err := sn.SolveBlock(bb, xx, k); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		ns.MulVec(xx[j*rows:(j+1)*rows], res)
		for i := 0; i < rows; i++ {
			if d := math.Abs(res[i] - bb[j*rows+i]); d > 1e-6 {
				t.Fatalf("nonsymmetric rhs %d row %d residual %g", j, i, d)
			}
		}
	}

	// Shape errors must be rejected, not crash.
	if _, err := s.SolveBlock(bb[:rows], xx, k); err == nil {
		t.Fatal("short b accepted")
	}
}

// TestMulVecBlockMatchesMulVec: the column-major multi-RHS SpMV must
// agree bitwise with k independent MulVec calls.
func TestMulVecBlockMatchesMulVec(t *testing.T) {
	a := laplacian2D(24)
	rows := a.Rows
	const k = 3
	rng := rand.New(rand.NewSource(59))
	xx := make([]float64, rows*k)
	for i := range xx {
		xx[i] = rng.NormFloat64()
	}
	want := make([]float64, rows*k)
	for j := 0; j < k; j++ {
		a.MulVec(xx[j*rows:(j+1)*rows], want[j*rows:(j+1)*rows])
	}
	got := make([]float64, rows*k)
	a.MulVecBlock(xx, got, k)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("block SpMV mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}
