package num

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the shared-memory parallel kernel layer: the
// BLAS-1 vector kernels (Dot, Norm2, Axpy) and the CSR matrix-vector
// product fork across a persistent pool of kernel goroutines when the
// operand is large enough to amortize the fork/join, and fall back to
// the serial loops below a work threshold so small systems pay nothing.
// The fork/join path is allocation-free in steady state: run descriptors
// come from a sync.Pool, work spans are plain values on a buffered
// channel, and partial-reduction slots live in the reused descriptor.
//
// The thread count is process-wide (SetKernelThreads); the serving
// layer exposes it through sim.Options so deployments can trade
// intra-solve parallelism against worker-pool concurrency.

// kernelThreads holds the configured thread count; 0 means "follow
// runtime.GOMAXPROCS".
var kernelThreads atomic.Int32

// SetKernelThreads sets the maximum number of goroutines a single
// kernel call (SpMV, dot, norm, axpy) may fan out across. n <= 0
// restores the default (runtime.GOMAXPROCS at call time). Safe to call
// concurrently with running kernels; in-flight operations finish with
// the count they started with.
func SetKernelThreads(n int) {
	if n < 0 {
		n = 0
	}
	kernelThreads.Store(int32(n))
}

// KernelThreads returns the effective kernel thread count.
func KernelThreads() int {
	if n := int(kernelThreads.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Parallelization thresholds. Variables (not constants) so the tests
// can shrink them and exercise the parallel path on small operands.
var (
	// parallelMinWork is the minimum number of scalar operations in a
	// kernel call before it forks; below it the serial loop wins.
	parallelMinWork = 1 << 15
	// parallelChunkWork is the target scalar operations per chunk.
	parallelChunkWork = 1 << 14
)

// maxKernelChunks bounds the fan-out of one kernel call (and sizes the
// partial-reduction scratch).
const maxKernelChunks = 64

// kernelChunks returns how many chunks a kernel call of the given
// scalar-op count should fork into (1 = run serial).
func kernelChunks(work int) int {
	t := KernelThreads()
	if t <= 1 || work < parallelMinWork {
		return 1
	}
	c := work / parallelChunkWork
	if c < 2 {
		return 1
	}
	if c > t {
		c = t
	}
	if c > maxKernelChunks {
		c = maxKernelChunks
	}
	return c
}

type kernelOp int32

const (
	opMulVec kernelOp = iota
	opDot
	opNorm2
	opAxpy
	opMulVecBlock
	opMulVecSell
)

// parRun describes one forked kernel call. Instances are pooled; the
// part slice doubles as the partial-reduction scratch and is retained
// across uses, so steady-state kernel calls do not allocate.
type parRun struct {
	op     kernelOp
	a      *CSR
	x, y   []float64
	sell   *SELLCS
	blockK int
	alpha  float64
	part   []float64
	wg     sync.WaitGroup
}

// kernelSpan is one chunk of a run, sent by value over the work channel.
type kernelSpan struct {
	run    *parRun
	lo, hi int
	idx    int
}

var (
	kernelWorkOnce sync.Once
	kernelWork     chan kernelSpan
	kernelWorkers  atomic.Int32
	kernelSpawnMu  sync.Mutex
	runPool        = sync.Pool{New: func() any { return new(parRun) }}
)

// ensureWorkers guarantees at least n persistent kernel goroutines are
// parked on the work channel. Workers never exit; the pool grows to the
// largest fan-out ever requested and stays there.
func ensureWorkers(n int) {
	kernelWorkOnce.Do(func() {
		kernelWork = make(chan kernelSpan, 4*maxKernelChunks)
	})
	if int(kernelWorkers.Load()) >= n {
		return
	}
	kernelSpawnMu.Lock()
	for int(kernelWorkers.Load()) < n {
		kernelWorkers.Add(1)
		go kernelWorker()
	}
	kernelSpawnMu.Unlock()
}

func kernelWorker() {
	for sp := range kernelWork {
		sp.run.exec(sp.lo, sp.hi, sp.idx)
		sp.run.wg.Done()
	}
}

// exec runs the chunk [lo, hi) of the run's operation; idx addresses the
// chunk's partial-reduction slots.
func (r *parRun) exec(lo, hi, idx int) {
	switch r.op {
	case opMulVec:
		mulVecRange(r.a, r.x, r.y, lo, hi)
	case opDot:
		r.part[idx] = dotRange(r.x, r.y, lo, hi)
	case opNorm2:
		m, s := norm2Range(r.x, lo, hi)
		r.part[2*idx], r.part[2*idx+1] = m, s
	case opAxpy:
		axpyRange(r.alpha, r.x, r.y, lo, hi)
	case opMulVecBlock:
		mulVecBlockRange(r.a, r.x, r.y, r.blockK, lo, hi)
	case opMulVecSell:
		// SELL forks over slice indices, not rows.
		sellMulVecRange(r.sell, r.x, r.y, lo, hi)
	}
}

// getRun checks a descriptor out of the pool with partial-reduction
// scratch for up to maxKernelChunks chunks.
func getRun(op kernelOp) *parRun {
	r := runPool.Get().(*parRun)
	r.op = op
	if cap(r.part) < 2*maxKernelChunks {
		r.part = make([]float64, 2*maxKernelChunks)
	}
	r.part = r.part[:2*maxKernelChunks]
	return r
}

// putRun drops operand references (so pooled descriptors do not pin
// matrices or vectors) and returns the descriptor to the pool.
func putRun(r *parRun) {
	r.a, r.x, r.y = nil, nil, nil
	r.sell = nil
	runPool.Put(r)
}

// forkJoin splits [0, n) into the given chunk count, executes chunk 0
// inline on the calling goroutine and the rest on the kernel pool, and
// waits for all of them.
func forkJoin(r *parRun, n, chunks int) {
	ensureWorkers(chunks - 1)
	r.wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		kernelWork <- kernelSpan{run: r, lo: c * n / chunks, hi: (c + 1) * n / chunks, idx: c}
	}
	r.exec(0, n/chunks, 0)
	r.wg.Wait()
}

// Serial kernel ranges. The full-range serial calls are bitwise
// identical to the pre-parallel implementations.

func mulVecRange(m *CSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

func dotRange(x, y []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += x[i] * y[i]
	}
	return s
}

// norm2Range returns the chunk's maximum magnitude m and the sum of
// (v/m)^2 over the chunk (0 if the chunk is all zero). Chunks combine
// exactly: for chunk results (m_i, s_i), the norm is
// M*sqrt(sum_i s_i*(m_i/M)^2) with M = max m_i — the same overflow-safe
// scaling as the serial Norm2, which is the single-chunk case.
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

// mulVecBlockRange is the multi-RHS SpMV row range: x and y hold k
// right-hand sides column-major (column j occupies x[j*n : (j+1)*n]).
// The row's index/value entries are read once into cache and then
// reused across all k columns, so the matrix stream is amortized while
// each column keeps the access pattern (and summation order) of the
// single-vector MulVec.
// blockRowTile is the row-tile size of the multi-RHS SpMV kernels: the
// tile's matrix entries (Val/ColIdx for ~tile rows) are replayed from
// cache for every column instead of re-streaming the whole matrix, while
// each column's x window inside a tile stays a few tens of KB. Rows are
// still visited in ascending order per column, so tiling never changes
// the per-column arithmetic.
const blockRowTile = 2048

// mulVecBlockDotRange is mulVecBlockRange restricted to active columns,
// with the per-column <x_j, y_j> reduction folded into the traversal.
// Each pap[j] accumulates in ascending row order, so for a full serial
// range the reduction is bitwise identical to Dot(x_j, y_j) run after a
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
