# Developer/CI entry points. `make check` is the full gate, in order:
# gofmt (any file gofmt would rewrite fails), go vet, brightlint (the
# domain-aware analyzers in internal/lint: SI-unit literals, *Context
# propagation on serving paths, obs registration placement, discarded
# errors, goroutine lifecycle, lock hygiene, HTTP response lifecycle),
# the build, the benchmark module's build and vet (`perfbench-build` —
# perfbench/ is its own module, so `go build ./...` does not see it,
# and an API change that breaks what it links would otherwise surface
# only when the benchmark runs), the answer gate (`golden` — cold
# core.Evaluate reports and the Fig. 9 thermal.Solve compared field by
# field against internal/core/testdata/golden.json, ≈4 s; the gate runs
# no plain `go test` otherwise), the serving tier under the race
# detector with the leakcheck goroutine-neutrality harness active
# (`race-all` — the sim engine, streaming sessions and cluster
# coordinator are heavily concurrent; races and leaked goroutines there
# are correctness bugs, not style), and the kernel escape guard. `make race` remains the
# full-tree race pass and `make fuzz` the fuzz smoke, both outside the
# default gate for time.

GO ?= go

.PHONY: check fmt-check build perfbench-build golden vet lint lint-fix-list test race race-all test-short fuzz bench bench-serving bench-compare escape-check

check: fmt-check vet lint build perfbench-build golden race-all escape-check

# Formatting gate: any file gofmt would rewrite fails the build.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "fmt-check: gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@echo fmt-check ok

build:
	$(GO) build ./...

# The benchmark module (perfbench/, `replace bright => ../`) builds
# against this tree; -o /dev/null keeps the binary out of the checkout.
perfbench-build:
	$(GO) -C perfbench build -o /dev/null ./...
	$(GO) -C perfbench vet ./...

# Answer gate: TestGolden's tolerances live in its goldenTol table;
# `go test -run Golden ./internal/core/ -update` regenerates the file.
golden:
	$(GO) test -count=1 -run Golden ./internal/core/

vet:
	$(GO) vet ./...

# Domain-aware static analysis (cmd/brightlint): exits nonzero on any
# finding. Deliberate cases are annotated in source with
# `//lint:ignore <analyzer> <reason>`.
lint:
	$(GO) run ./cmd/brightlint ./...

# Convenience view of the same findings grouped by analyzer with
# counts, for working through a backlog; never fails the build.
lint-fix-list:
	@$(GO) run ./cmd/brightlint -group ./... || true

test:
	$(GO) test ./...

# Race-detected run of everything; use `make race PKG=./internal/sim/...`
# to scope it to the concurrent paths. Race instrumentation is a
# 10-20x slowdown on small containers (the experiments package alone
# can exceed go test's default 10m budget on one core), so the gate
# raises the per-package timeout rather than skipping the heavy suites.
PKG ?= ./...
RACE_TIMEOUT ?= 30m
race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) $(PKG)

# Race pass over the whole concurrent serving tier in one invocation
# (it replaced the old race-serving/race-stream/race-cluster trio): the
# metrics registry, the sim engine's workers and flight groups, the
# streaming session run loops and frame ring, the cluster coordinator's
# hedged requests and health/snapshot loops, and the brightd
# integration tests at the repo root. internal/sim, internal/stream and
# internal/cluster run under the leakcheck TestMain harness
# (internal/testutil/leakcheck), so this target also proves every
# goroutine those packages start dies with its owner — the runtime twin
# of the goroutinelife analyzer.
race-all:
	$(GO) test -race -timeout $(RACE_TIMEOUT) . ./internal/obs/... ./internal/sim/... ./internal/stream/... ./internal/cluster/... ./internal/testutil/...

test-short:
	$(GO) test -short ./...

# Fuzz smoke: a short bounded run of each fuzz target (Go's fuzzer
# accepts one -fuzz per invocation). FuzzCanonicalKey/FuzzChainKey pin
# the cache-key quantization contract (the chain key moves with the
# flow alone, never with the inlet temperature); FuzzCacheSnapshotRestore throws
# arbitrary JSON at the snapshot-restore path brightd exposes over PUT
# /v1/cache/snapshot; FuzzSweepChains pins the sweep chain partition
# (one chain per flow; the chains' grids concatenate to exactly
# Grid()); FuzzCOOToCSR pins sparse assembly (the CSR equals a dense
# accumulation of the stamps in stamp order, bitwise, with strictly
# ascending columns per row); FuzzCSRMulVec and FuzzILU0Apply pin the
# four-row SpMV and the register-carried ILU(0) sweeps to their one-row
# reference loops, bitwise. Longer runs: bump FUZZTIME.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzCanonicalKey -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzChainKey -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzCacheSnapshotRestore -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run xxx -fuzz FuzzSweepChains -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run xxx -fuzz FuzzCSRMulVec -fuzztime $(FUZZTIME) ./internal/num
	$(GO) test -run xxx -fuzz FuzzILU0Apply -fuzztime $(FUZZTIME) ./internal/num
	$(GO) test -run xxx -fuzz FuzzCOOToCSR -fuzztime $(FUZZTIME) ./internal/num

# Full benchmark sweep over the numeric kernels, the thermal solver,
# the serving engine and the streaming-session stepper, folded into a
# machine-readable report ($(BENCH_OUT)): per-benchmark ns/op, B/op,
# allocs/op, the paired speedup rows (Jacobi vs multigrid
# preconditioning, Jacobi vs ILU(0) and ILU(0) vs the semicoarsened
# multigrid on the thermal unit responses,
# sequential vs block multi-RHS CG, the one-row reference loops vs the
# SpMV and ILU(0)-apply kernels) and the
# streaming frames/s rows, stamped with the Go version
# and core count of the generating machine. The num suite runs -count 3 so the
# committed speedup rows are medians (see cmd/benchjson), not single
# samples of a drifting box. BENCH_PR2.json (pre-multigrid),
# BENCH_PR5.json (pre-streaming), BENCH_PR6.json (pre-mixed-precision)
# and BENCH_PR7.json (pre-SELL) are frozen baselines; do not overwrite
# them.
BENCH_OUT ?= BENCH_PR10.json
bench:
	$(GO) test -run xxx -bench . -count 3 -benchmem ./internal/num > /tmp/bench_num.txt
	$(GO) test -run xxx -bench . -benchmem ./internal/thermal > /tmp/bench_thermal.txt
	$(GO) test -run xxx -bench 'BenchmarkEngineThroughput|BenchmarkSweepChain17' -benchmem . > /tmp/bench_engine.txt
	$(GO) test -run xxx -bench BenchmarkTransientStepping -benchmem ./internal/stream > /tmp/bench_stream.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) /tmp/bench_num.txt /tmp/bench_thermal.txt /tmp/bench_engine.txt /tmp/bench_stream.txt
	@echo wrote $(BENCH_OUT)

# Serving-layer throughput baseline only (see BenchmarkEngineThroughput).
bench-serving:
	$(GO) test -run xxx -bench BenchmarkEngineThroughput -benchmem .

# Solver regression gate: runs the paired preconditioner benchmarks
# (BenchmarkCGPoisson64x64, BenchmarkCGPoisson128x128, BenchmarkCGStack3D
# — each a /jacobi vs /mg couple), the thermal unit-response triple
# (BenchmarkThermalResponse: /jacobi vs /ilu0 and /ilu0 vs /mg wall
# clock on the 676 ml/min operator), the block multi-RHS couple
# (BenchmarkBlockCG128x128: /seq vs /block, gated on the deterministic
# rows/op metric), the SpMV couples (BenchmarkSpMV*: the one-row
# /rowloop vs CSR.MulVec's four-row /csr on the 256²/512²/stacked-die
# and Power7 thermal operators) and the ILU(0)-apply couple
# (BenchmarkILU0ApplyPower7: the row-loop /reference vs the
# register-carried /apply), and fails if any optimized path drops
# below 1.0x its baseline, or if any pair goes missing. -count 3 lets
# benchjson gate on per-benchmark medians, so a CPU-frequency dip on a
# shared box cannot flake a timing ratio.
bench-compare:
	$(GO) test -run xxx -bench 'BenchmarkCGPoisson|BenchmarkCGStack3D|BenchmarkBlockCG|BenchmarkSpMV|BenchmarkILU0Apply' -count 3 -benchmem ./internal/num > /tmp/bench_mg.txt
	$(GO) test -run xxx -bench BenchmarkThermalResponse -count 3 -benchmem ./internal/thermal > /tmp/bench_ilu.txt
	$(GO) run ./cmd/benchjson -min-mg-speedup 1.0 -min-speedup 1.0 -o /dev/null /tmp/bench_mg.txt /tmp/bench_ilu.txt

# Static allocation guard for the kernel hot paths. In
# internal/num/kernels.go (the BLAS-1 loops and the SpMV) and
# internal/num/mgcycle.go (the multigrid V-cycle, apart from its
# constructor in mg.go) no heap escape is allowed; in
# internal/num/ilu.go only the ILU(0) constructor (NewILU0, run once at
# solver setup) may allocate — the forward/back sweeps of Apply run on
# every Krylov iteration. Anything else — a closure capturing operands,
# a buffer escaping per call — would put an allocation on every kernel
# op and break the zero-allocs/op solve loop, so it fails the gate.
# The dynamic twins of this guard are TestKrylovWorkspaceZeroAlloc and
# TestMGApplyZeroAlloc.
escape-check:
	@out=$$($(GO) build -gcflags=-m ./internal/num 2>&1 \
		| grep -E 'kernels\.go|mgcycle\.go|ilu\.go' \
		| grep -E 'escapes to heap|moved to heap' \
		| grep -vE 'ilu\.go:.*(make\(\[\]float64, len\(a\.Val\)\)|make\(\[\]int, n\)|&ILU0\{\.\.\.\})'); \
	if [ -n "$$out" ]; then \
		echo "escape-check: unexpected heap escapes in the kernel hot path:"; \
		echo "$$out"; exit 1; \
	fi
	@echo escape-check ok
