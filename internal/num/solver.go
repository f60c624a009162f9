package num

import (
	"errors"
	"sync"

	"bright/internal/obs"
)

// Krylov solver telemetry, published process-wide (obs.Default): every
// SparseSolver in the process shares these, matching how the solvers
// themselves are shared across thermal sessions, PDN grids and sweeps.
// Counting happens per Solve call, not per iteration, so the cost is
// one atomic add against thousands of SpMV operations.
var (
	cgSolves = obs.Default.Counter("bright_krylov_solves_total",
		"SparseSolver.Solve attempts by method (a CG fallback counts both).",
		obs.L("method", "cg"))
	bicgSolves = obs.Default.Counter("bright_krylov_solves_total",
		"SparseSolver.Solve attempts by method (a CG fallback counts both).",
		obs.L("method", "bicgstab"))
	cgIterations = obs.Default.Counter("bright_krylov_iterations_total",
		"Krylov iterations spent inside SparseSolver.Solve, by method.",
		obs.L("method", "cg"))
	bicgIterations = obs.Default.Counter("bright_krylov_iterations_total",
		"Krylov iterations spent inside SparseSolver.Solve, by method.",
		obs.L("method", "bicgstab"))
	cgFallbacks = obs.Default.Counter("bright_krylov_cg_fallbacks_total",
		"CG breakdowns that restarted as BiCGSTAB on the cached preconditioner.")
	solveFailures = obs.Default.Counter("bright_krylov_failures_total",
		"SparseSolver.Solve calls whose final method did not converge.")
	maxIterExhausted = obs.Default.Counter("bright_krylov_maxiter_total",
		"Solves that exhausted their iteration budget (ErrMaxIter), distinct from breakdown fallbacks.")
)

// SparseSolver binds an iterative method to one matrix and caches
// everything that only depends on its sparsity pattern and values: the
// symmetry decision (CG vs BiCGSTAB), the preconditioner the solver
// rule picks (see NewSparseSolverSymmetric), and the Krylov scratch
// workspace. Repeated solves against the same matrix
// — the co-simulation fixed-point loop, transient time stepping,
// parameter sweeps — pay none of that per call, and the steady-state
// solve loop is allocation-free.
//
// The solver does not observe later mutation of the matrix: if the
// values or pattern change, build a new SparseSolver.
//
// Solve is safe for concurrent use; calls serialize on an internal
// mutex (the scratch workspace is shared). For parallel solves against
// the same matrix, give each goroutine its own solver.
type SparseSolver struct {
	mu  sync.Mutex
	a   *CSR
	sym bool
	pre Preconditioner
	opt IterOptions
	ws  Workspace
	bws BlockWorkspace
}

// NewSparseSolver builds a solver for a, detecting symmetry once
// (numerically, to 1e-12). opt.M overrides the rule-built
// preconditioner when non-nil.
func NewSparseSolver(a *CSR, opt IterOptions) *SparseSolver {
	return NewSparseSolverSymmetric(a, a.IsSymmetric(1e-12), opt)
}

// NewSparseSolverSymmetric is NewSparseSolver with the symmetry
// decision asserted by the caller, skipping the O(nnz * row-nnz) scan —
// use it when the assembly guarantees the answer (FV diffusion stamps
// are symmetric; advection-coupled networks are not). Asserting
// symmetric=true on a matrix that only CG cannot handle is still safe:
// a CG breakdown falls back to BiCGSTAB on the same cached
// preconditioner.
//
// Unless opt.M is set, the preconditioner follows from the operator
// alone, chosen by size, symmetry and opt.Shape: for an operator of at
// least MGAutoThreshold rows whose grid opt.Shape describes, the
// ILU(0)-smoothed multigrid hierarchy (the thermal networks and the
// power grids), whose cycle is symmetric when the operator is so CG
// stays valid; otherwise ILU(0) for a nonsymmetric operator and Jacobi
// for a symmetric one.
func NewSparseSolverSymmetric(a *CSR, symmetric bool, opt IterOptions) *SparseSolver {
	s := &SparseSolver{a: a, sym: symmetric, opt: opt}
	if opt.M != nil {
		s.pre = opt.M
	} else {
		s.pre = buildPrecond(a, symmetric, opt.Shape)
	}
	return s
}

// Precond returns the preconditioner the solver resolved at build time
// (callers inspect it to confirm which branch of the rule was taken).
func (s *SparseSolver) Precond() Preconditioner { return s.pre }

// Symmetric reports the cached symmetry decision.
func (s *SparseSolver) Symmetric() bool { return s.sym }

// Matrix returns the bound matrix.
func (s *SparseSolver) Matrix() *CSR { return s.a }

// WarmStart carries a previous solution field across solves as the next
// solve's initial guess. The zero value is valid (an empty cache).
// Invalidation contract: a cached guess is only a guess — any field of
// the right length is safe (the solver still converges to the true
// solution) — but it must be dropped (Invalidate) when the system
// dimension changes, which Seed enforces by length check.
type WarmStart struct {
	x []float64
}

// Seed copies the cached field into x and reports whether it did; a
// missing or wrongly-sized cache leaves x untouched and returns false.
// Safe on a nil receiver.
func (w *WarmStart) Seed(x []float64) bool {
	if w == nil || len(w.x) != len(x) {
		return false
	}
	copy(x, w.x)
	return true
}

// Save stores a copy of x as the next Seed, reusing the cached buffer
// when the size matches. Safe on a nil receiver (no-op).
func (w *WarmStart) Save(x []float64) {
	if w == nil {
		return
	}
	if len(w.x) != len(x) {
		w.x = make([]float64, len(x))
	}
	copy(w.x, x)
}

// Invalidate drops the cached field.
func (w *WarmStart) Invalidate() {
	if w != nil {
		w.x = nil
	}
}

// Solve solves A x = b. x carries the initial guess in (warm start) and
// the solution out. Symmetric systems run preconditioned CG; a CG
// breakdown (symmetric-indefinite matrices) restarts BiCGSTAB from zero
// with the same preconditioner. Nonsymmetric systems run BiCGSTAB
// directly.
func (s *SparseSolver) Solve(b, x []float64) (IterResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	opt := s.opt
	opt.M = s.pre
	if s.sym {
		res, err := CGWith(s.a, b, x, opt, &s.ws)
		cgSolves.Inc()
		cgIterations.Add(uint64(res.Iterations))
		if err == nil {
			return res, nil
		}
		if errors.Is(err, ErrMaxIter) {
			// Budget exhaustion is a tolerance/conditioning problem,
			// not a method problem — BiCGSTAB would burn the same
			// budget from zero. Surface it instead of masking it.
			maxIterExhausted.Inc()
			solveFailures.Inc()
			return res, err
		}
		cgFallbacks.Inc()
		Fill(x, 0)
	}
	res, err := BiCGSTABWith(s.a, b, x, opt, &s.ws)
	bicgSolves.Inc()
	bicgIterations.Add(uint64(res.Iterations))
	if err != nil {
		if errors.Is(err, ErrMaxIter) {
			maxIterExhausted.Inc()
		}
		solveFailures.Inc()
	}
	return res, err
}

// SolveBlock solves the k systems A x_j = b_j together. b and x hold
// the right-hand sides and initial guesses column-major (column j at
// [j*n : (j+1)*n]; see MulVecBlock); x is overwritten with the
// solutions. Symmetric systems run the batched block CG — one matrix
// traversal per iteration serves every still-unconverged column, which
// is the sweep-chain amortization. Nonsymmetric systems degrade to
// sequential per-column BiCGSTAB through the same cached
// preconditioner, so the call is always valid.
func (s *SparseSolver) SolveBlock(b, x []float64, k int) (BlockResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.a.Rows
	if k <= 0 || len(b) != n*k || len(x) != n*k {
		return BlockResult{}, ErrShape
	}
	opt := s.opt
	opt.M = s.pre
	if s.sym {
		out, err := BlockCG(s.a, b, x, k, opt, &s.bws)
		cgSolves.Inc()
		cgIterations.Add(uint64(out.Iterations))
		if err != nil {
			if errors.Is(err, ErrMaxIter) {
				maxIterExhausted.Inc()
			}
			solveFailures.Inc()
		}
		return out, err
	}
	s.bws.size(n, k)
	out := BlockResult{PerRHS: s.bws.perRHS}
	var firstErr error
	for j := 0; j < k; j++ {
		res, err := BiCGSTABWith(s.a, b[j*n:(j+1)*n], x[j*n:(j+1)*n], opt, &s.ws)
		bicgSolves.Inc()
		bicgIterations.Add(uint64(res.Iterations))
		out.PerRHS[j] = res
		if res.Iterations > out.Iterations {
			out.Iterations = res.Iterations
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		if errors.Is(firstErr, ErrMaxIter) {
			maxIterExhausted.Inc()
		}
		solveFailures.Inc()
	}
	return out, firstErr
}
