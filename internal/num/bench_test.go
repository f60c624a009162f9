package num

import (
	"math/rand"
	"testing"
)

// laplacian2D builds the SPD 5-point stencil on an n x n grid.
func laplacian2D(n int) *CSR {
	c := NewCOO(n*n, n*n)
	idx := func(i, j int) int { return j*n + i }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			row := idx(i, j)
			c.Add(row, row, 4)
			if i > 0 {
				c.Add(row, idx(i-1, j), -1)
			}
			if i < n-1 {
				c.Add(row, idx(i+1, j), -1)
			}
			if j > 0 {
				c.Add(row, idx(i, j-1), -1)
			}
			if j < n-1 {
				c.Add(row, idx(i, j+1), -1)
			}
		}
	}
	return c.ToCSR()
}

func BenchmarkCSRMulVec64x64(b *testing.B) {
	a := laplacian2D(64)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

func BenchmarkCGLaplacian64x64(b *testing.B) {
	a := laplacian2D(64)
	rhs := make([]float64, a.Rows)
	rng := rand.New(rand.NewSource(1))
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	m := NewJacobi(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, a.Rows)
		if _, err := CG(a, rhs, x, IterOptions{Tol: 1e-8, M: m}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBiCGSTABConvection(b *testing.B) {
	const n = 4096
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
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	m := NewJacobi(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		if _, err := BiCGSTAB(a, rhs, x, IterOptions{Tol: 1e-9, M: m}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolve64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n = 64
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Add(i, i, float64(n))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveDense(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTridiag4096(b *testing.B) {
	const n = 4096
	sub := make([]float64, n)
	diag := make([]float64, n)
	sup := make([]float64, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 4
		sub[i] = -1
		sup[i] = -1
		rhs[i] = float64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveTridiag(sub, diag, sup, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrentPolarizationStyle(b *testing.B) {
	// The shape of the operating-point solves: exp-dominated monotone
	// function root-found per evaluation.
	f := func(x float64) float64 { return 2.3*expApprox(x) - 5 - x }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Brent(f, 0, 3, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// expApprox keeps the benchmark allocation-free and deterministic.
func expApprox(x float64) float64 {
	s := 1.0
	term := 1.0
	for k := 1; k < 12; k++ {
		term *= x / float64(k)
		s += term
	}
	return s
}

// BenchmarkMulVecLargeGrid is the headline SpMV kernel on the 256x256
// five-point Laplacian (65k rows, ~327k nonzeros).
func BenchmarkMulVecLargeGrid(b *testing.B) {
	a := laplacian2D(256)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%13) * 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

// BenchmarkDotLarge exercises the reduction on 1M elements.
func BenchmarkDotLarge(b *testing.B) {
	const n = 1 << 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17) * 0.5
		y[i] = float64(i%11) * 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Dot(x, y)
	}
}

var sink float64

// BenchmarkCGLargeGrid solves the 256x256 Laplacian with a cached
// SparseSolver: the kernels' end-to-end cost on a realistic Krylov
// solve. The solver is reused across iterations, so
// the loop also demonstrates the allocation-free steady state.
func BenchmarkCGLargeGrid(b *testing.B) {
	a := laplacian2D(256)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}
	s := NewSparseSolverSymmetric(a, true, IterOptions{Tol: 1e-8, MaxIter: 10 * a.Rows})
	x := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(x, 0)
		if _, err := s.Solve(rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPrecond runs one CG solve per iteration as /jacobi and /mg
// sub-benchmarks — the suffix pairing cmd/benchjson keys on to compute
// the multigrid speedup rows. MG setup happens outside the timed loop,
// matching how the serving paths cache the hierarchy per operator.
func benchPrecond(b *testing.B, a *CSR, shape GridShape, tol float64) {
	rng := rand.New(rand.NewSource(4))
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	run := func(b *testing.B, m Preconditioner) {
		x := make([]float64, a.Rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Fill(x, 0)
			if _, err := CG(a, rhs, x, IterOptions{Tol: tol, M: m}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("jacobi", func(b *testing.B) { run(b, NewJacobi(a)) })
	mg, err := NewGMG(a, shape)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mg", func(b *testing.B) { run(b, mg) })
}

func BenchmarkCGPoisson64x64(b *testing.B) {
	benchPrecond(b, laplacian2D(64), GridShape{NX: 64, NY: 64}, 1e-8)
}

func BenchmarkCGPoisson128x128(b *testing.B) {
	benchPrecond(b, laplacian2D(128), GridShape{NX: 128, NY: 128}, 1e-8)
}

// BenchmarkCGStack3D is the 3D-IC shape: a chip-scale XY grid a few
// layers deep, matching the thermal stack solves.
func BenchmarkCGStack3D(b *testing.B) {
	benchPrecond(b, laplacian3D(48, 48, 8), GridShape{NX: 48, NY: 48, NZ: 8}, 1e-8)
}

// stack3D builds the 7-point stencil on an nx x ny x nz grid with
// in-plane weight 1 and through-plane weight wz — the stacked-die
// thermal operator, where inter-layer coupling through microchannel
// walls and TSVs is much stronger than in-plane spreading.
func stack3D(nx, ny, nz int, wz float64) *CSR {
	c := NewCOO(nx*ny*nz, nx*ny*nz)
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				row := idx(i, j, k)
				diag := 0.0
				add := func(ii, jj, kk int, w float64) {
					if ii >= 0 && ii < nx && jj >= 0 && jj < ny && kk >= 0 && kk < nz {
						c.Add(row, idx(ii, jj, kk), -w)
						diag += w
					}
				}
				add(i-1, j, k, 1)
				add(i+1, j, k, 1)
				add(i, j-1, k, 1)
				add(i, j+1, k, 1)
				add(i, j, k-1, wz)
				add(i, j, k+1, wz)
				c.Add(row, row, diag+0.01)
			}
		}
	}
	return c.ToCSR()
}

// BenchmarkBlockCG128x128 pairs /seq (eight one-RHS CG solves) against
// /block (one eight-RHS block CG) on the 128x128 Poisson grid — the
// multi-RHS couple of the bench report. Each sub reports rows/op, the
// CSR rows traversed per sweep chain (from the bright_spmv_rows_total
// counter): that is the block solver's deterministic win — one
// traversal serves all k columns — and the metric cmd/benchjson pairs
// the couple on, immune to the wall-clock noise of a shared box.
func BenchmarkBlockCG128x128(b *testing.B) {
	a := laplacian2D(128)
	const k = 8
	n := a.Rows
	rng := rand.New(rand.NewSource(7))
	cols := make([][]float64, k)
	inter := make([]float64, n*k)
	for j := 0; j < k; j++ {
		cols[j] = make([]float64, n)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			cols[j][i] = v
			inter[j*n+i] = v
		}
	}
	opt := IterOptions{Tol: 1e-8, M: NewJacobi(a)}
	b.Run("seq", func(b *testing.B) {
		ws := NewWorkspace(n)
		x := make([]float64, n)
		rows0 := spmvRowsTraversed.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				Fill(x, 0)
				if _, err := CGWith(a, cols[j], x, opt, ws); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(spmvRowsTraversed.Value()-rows0)/float64(b.N), "rows/op")
	})
	b.Run("block", func(b *testing.B) {
		ws := NewBlockWorkspace(n, k)
		x := make([]float64, n*k)
		rows0 := spmvRowsTraversed.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Fill(x, 0)
			if _, err := BlockCG(a, inter, x, k, opt, ws); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(spmvRowsTraversed.Value()-rows0)/float64(b.N), "rows/op")
	})
}

// BenchmarkCGWarmWorkspace measures the steady-state re-solve loop the
// co-simulation runs: same matrix, warm initial guess, cached workspace
// and preconditioner. allocs/op is the headline number (must be 0).
func BenchmarkCGWarmWorkspace(b *testing.B) {
	a := laplacian2D(64)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	s := NewSparseSolverSymmetric(a, true, IterOptions{Tol: 1e-10, MaxIter: 10 * a.Rows})
	x := make([]float64, a.Rows)
	if _, err := s.Solve(rhs, x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSpMV runs the SpMV couple on one operator: /rowloop (the
// one-row reference loop) vs /csr (CSR.MulVec's four-row walk); the
// wall-clock ratio is the gated spmv row in make bench-compare.
func benchSpMV(b *testing.B, a *CSR) {
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, a.Rows)
	b.Run("rowloop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mulVecRowLoop(a, x, y)
		}
	})
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.MulVec(x, y)
		}
	})
}

// BenchmarkSpMV256x256 / 512x512: the PDN/thermal Poisson operators at
// the array scales the sweep service actually solves.
func BenchmarkSpMV256x256(b *testing.B) { benchSpMV(b, laplacian2D(256)) }

func BenchmarkSpMV512x512(b *testing.B) { benchSpMV(b, laplacian2D(512)) }

// BenchmarkSpMVStack128x4 is the stacked-die operator (4 tiers with
// inter-tier microchannel coupling), the anisotropic 7-point stencil
// from the through-chip-microchannel scenario.
func BenchmarkSpMVStack128x4(b *testing.B) { benchSpMV(b, stack3D(128, 128, 4, 6)) }

// BenchmarkSpMVPower7 is the Power7 single-cavity thermal operator
// (88x64x4 solid + one fluid layer, 28 160 rows), the product every
// BiCGSTAB iteration of a cold evaluate runs twice.
func BenchmarkSpMVPower7(b *testing.B) { benchSpMV(b, thermalStampPattern(88, 64, 4).ToCSR()) }

// BenchmarkILU0ApplyPower7 is the ILU(0) couple on the same operator:
// /reference (the row loop, every neighbour reloaded from z) vs /apply
// (ILU0.Apply, the adjacent row carried in a register), the gated
// ilu0-apply row in make bench-compare.
func BenchmarkILU0ApplyPower7(b *testing.B) {
	a := thermalStampPattern(88, 64, 4).ToCSR()
	f, err := NewILU0(a)
	if err != nil {
		b.Fatal(err)
	}
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	z := make([]float64, a.Rows)
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.applyRowLoop(r, z)
		}
	})
	b.Run("apply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Apply(r, z)
		}
	})
}

// thermalStampPattern stamps the steady thermal network's pattern in
// its assembly order: an nx x ny x nz solid grid with two-sided
// conductance stamps per neighbour pair, then one fluid layer coupled
// to the top solid layer with upwind advection along y. At 88x64x4 it
// is the Power7 single-cavity operator's 273 448 stamps.
func thermalStampPattern(nx, ny, nz int) *COO {
	n := nx*ny*nz + nx*ny
	c := NewCOO(n, n)
	sIdx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	fIdx := func(i, j int) int { return nx*ny*nz + j*nx + i }
	stamp := func(a, b int, g float64) {
		c.Add(a, a, g)
		c.Add(a, b, -g)
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				row := sIdx(i, j, k)
				g := 1 + float64(k)/3
				if i < nx-1 {
					stamp(row, sIdx(i+1, j, k), g)
					stamp(sIdx(i+1, j, k), row, g)
				}
				if j < ny-1 {
					stamp(row, sIdx(i, j+1, k), g)
					stamp(sIdx(i, j+1, k), row, g)
				}
				if k < nz-1 {
					stamp(row, sIdx(i, j, k+1), 7*g)
					stamp(sIdx(i, j, k+1), row, 7*g)
				}
			}
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			f, w := fIdx(i, j), sIdx(i, j, nz-2)
			stamp(w, f, 0.5)
			c.Add(f, f, 0.5+0.25)
			c.Add(f, w, -0.5)
			if j > 0 {
				c.Add(f, fIdx(i, j-1), -0.25)
			}
		}
	}
	return c
}

// BenchmarkCOOToCSR converts the Power7 thermal stamp pattern (273 448
// stamps, 28 160 rows), the set-up step every cold evaluate pays.
func BenchmarkCOOToCSR(b *testing.B) {
	c := thermalStampPattern(88, 64, 4)
	if c.NNZ() != 273448 {
		b.Fatalf("pattern has %d stamps, want 273448", c.NNZ())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCSR = c.ToCSR()
	}
}

var benchCSR *CSR
