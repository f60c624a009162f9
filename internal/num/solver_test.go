package num

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func residualNorm(a *CSR, b, x []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return Norm2(r) / Norm2(b)
}

func TestSparseSolverSymmetricCG(t *testing.T) {
	a := laplacian2D(24)
	n := a.Rows
	s := NewSparseSolver(a, IterOptions{Tol: 1e-11})
	if !s.Symmetric() {
		t.Fatal("laplacian not detected symmetric")
	}
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := s.Solve(b, x)
	if err != nil {
		t.Fatal(err)
	}
	if rn := residualNorm(a, b, x); rn > 1e-10 {
		t.Fatalf("residual %g after %d iters", rn, res.Iterations)
	}
	// Warm start at the exact solution: the second solve must detect
	// convergence immediately.
	res2, err := s.Solve(b, x)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Iterations != 0 {
		t.Fatalf("warm-started solve took %d iterations, want 0", res2.Iterations)
	}
}

// TestSparseSolverFallback pins the CG -> BiCGSTAB path: diag(1, -1) is
// symmetric indefinite and breaks CG deterministically (p.Ap = 0 on the
// first step), so the solver must recover through BiCGSTAB with the
// same cached Jacobi preconditioner.
func TestSparseSolverFallback(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1)
	a := c.ToCSR()
	s := NewSparseSolver(a, IterOptions{Tol: 1e-12})
	if !s.Symmetric() {
		t.Fatal("diagonal matrix not detected symmetric")
	}
	b := []float64{1, 1}
	x := make([]float64, 2)
	if _, err := s.Solve(b, x); err != nil {
		t.Fatalf("fallback solve failed: %v", err)
	}
	want := []float64{1, -1}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	// SolveSparse routes through the same path.
	x2, _, err := SolveSparse(a, b, IterOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("SolveSparse fallback failed: %v", err)
	}
	for i := range x2 {
		if math.Abs(x2[i]-want[i]) > 1e-9 {
			t.Fatalf("SolveSparse x = %v, want %v", x2, want)
		}
	}
}

func TestSparseSolverNonsymmetric(t *testing.T) {
	const n = 200
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 3)
		if i > 0 {
			c.Add(i, i-1, -1.8)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	a := c.ToCSR()
	s := NewSparseSolver(a, IterOptions{Tol: 1e-11})
	if s.Symmetric() {
		t.Fatal("convection matrix detected symmetric")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	if _, err := s.Solve(b, x); err != nil {
		t.Fatal(err)
	}
	if rn := residualNorm(a, b, x); rn > 1e-10 {
		t.Fatalf("residual %g", rn)
	}
}

// TestSparseSolverConcurrent hammers one SparseSolver from many
// goroutines (run under -race via `make check`): solves serialize on
// the internal mutex and every caller must still get its own correct
// solution through the shared workspace.
func TestSparseSolverConcurrent(t *testing.T) {
	a := laplacian2D(16)
	n := a.Rows
	s := NewSparseSolver(a, IterOptions{Tol: 1e-11})
	const goroutines = 8
	const solvesEach = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			b := make([]float64, n)
			x := make([]float64, n)
			for k := 0; k < solvesEach; k++ {
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				Fill(x, 0)
				if _, err := s.Solve(b, x); err != nil {
					errs <- err
					return
				}
				if rn := residualNorm(a, b, x); rn > 1e-10 {
					errs <- ErrNoConvergence
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestKrylovWorkspaceZeroAlloc is the steady-state allocation contract:
// warm solves through a reused Workspace and prebuilt preconditioner
// must not allocate at all.
func TestKrylovWorkspaceZeroAlloc(t *testing.T) {
	a := laplacian2D(24)
	n := a.Rows
	rng := rand.New(rand.NewSource(9))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	opt := IterOptions{Tol: 1e-10, M: NewJacobi(a)}
	ws := NewWorkspace(n)
	if _, err := CGWith(a, b, x, opt, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		Fill(x, 0)
		if _, err := CGWith(a, b, x, opt, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("CGWith allocates %.1f per solve, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(20, func() {
		Fill(x, 0)
		if _, err := BiCGSTABWith(a, b, x, opt, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BiCGSTABWith allocates %.1f per solve, want 0", allocs)
	}

	// Same contract with a multigrid preconditioner: hierarchy setup may
	// allocate, the steady-state MG-preconditioned solve loop must not.
	mg, err := NewSemiGMG(a, GridShape{NX: 24, NY: 24}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	opt.M = mg
	allocs = testing.AllocsPerRun(20, func() {
		Fill(x, 0)
		if _, err := CGWith(a, b, x, opt, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MG-preconditioned CGWith allocates %.1f per solve, want 0", allocs)
	}

	// Same contract with ILU(0), the rule's choice for nonsymmetric
	// operators: factorization may allocate, BiCGSTAB's steady-state
	// loop with its forward/back sweeps must not.
	ilu, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	opt.M = ilu
	allocs = testing.AllocsPerRun(20, func() {
		Fill(x, 0)
		if _, err := BiCGSTABWith(a, b, x, opt, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ILU(0)-preconditioned BiCGSTABWith allocates %.1f per solve, want 0", allocs)
	}

	// Block solver: warm solves through a reused BlockWorkspace must not
	// allocate (PerRHS is workspace-backed).
	const k = 4
	bb := make([]float64, n*k)
	xx := make([]float64, n*k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			bb[j*n+i] = b[i] * float64(j+1)
		}
	}
	opt.M = NewJacobi(a)
	bws := NewBlockWorkspace(n, k)
	if _, err := BlockCG(a, bb, xx, k, opt, bws); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		Fill(xx, 0)
		if _, err := BlockCG(a, bb, xx, k, opt, bws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BlockCG allocates %.1f per solve, want 0", allocs)
	}
}

// TestSparseSolverTelemetry pins the process-wide Krylov counters: a CG
// solve bumps the cg series, a CG breakdown bumps the fallback counter
// and the bicgstab series. Counters are deltas, not absolutes — other
// tests in the package share obs.Default.
func TestSparseSolverTelemetry(t *testing.T) {
	delta := func(f func()) (cgS, cgIt, biS, biIt, fb uint64) {
		c0, i0, b0, j0, f0 := cgSolves.Value(), cgIterations.Value(), bicgSolves.Value(), bicgIterations.Value(), cgFallbacks.Value()
		f()
		return cgSolves.Value() - c0, cgIterations.Value() - i0,
			bicgSolves.Value() - b0, bicgIterations.Value() - j0,
			cgFallbacks.Value() - f0
	}

	// Healthy SPD solve: CG only.
	a := laplacian2D(12)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	cgS, cgIt, biS, _, fb := delta(func() {
		x := make([]float64, a.Rows)
		if _, err := NewSparseSolver(a, IterOptions{Tol: 1e-10}).Solve(b, x); err != nil {
			t.Fatal(err)
		}
	})
	if cgS != 1 || cgIt == 0 || biS != 0 || fb != 0 {
		t.Fatalf("SPD solve counted cgSolves=%d cgIters=%d biSolves=%d fallbacks=%d, want 1/>0/0/0",
			cgS, cgIt, biS, fb)
	}

	// Symmetric-indefinite matrix: CG breaks down, BiCGSTAB finishes.
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1)
	ind := c.ToCSR()
	cgS, _, biS, biIt, fb := delta(func() {
		x := make([]float64, 2)
		if _, err := NewSparseSolver(ind, IterOptions{Tol: 1e-12}).Solve([]float64{1, 1}, x); err != nil {
			t.Fatal(err)
		}
	})
	if cgS != 1 || biS != 1 || biIt == 0 || fb != 1 {
		t.Fatalf("indefinite solve counted cgSolves=%d biSolves=%d biIters=%d fallbacks=%d, want 1/1/>0/1",
			cgS, biS, biIt, fb)
	}
}
