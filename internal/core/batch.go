package core

import (
	"context"
	"fmt"

	"bright/internal/cosim"
)

// Batch evaluates a sequence of configurations while reusing the
// operator that consecutive points share: one cosim.Runner (the
// assembled thermal FV network and its unit responses) per total flow,
// rebuilt only when FlowMLMin changes; an inlet change keeps it. The
// power grid needs no per-batch state: every evaluation reads the
// process-wide grid response.
//
// Fed points in sim.SweepSpec.Grid() row-major order — flow outermost,
// load innermost — every run of points sharing a flow pays the thermal
// response's two Krylov solves once, which is the sweep-level win this
// type exists for. A Batch is not safe for concurrent use.
type Batch struct {
	runner *cosim.Runner
}

// NewBatch returns an empty batch; the runner is built on first use.
func NewBatch() *Batch { return &Batch{} }

// PrefetchChain checks a sweep chain before its sequential walk: every
// point must be a valid Config and ctx must still be live. It does no
// solver work — the grid stage is answered by the process-wide
// response and the thermal stage by the runner's — and survives as the
// chain hook sim.Options.BatchChain hands each chain's point list to.
func (b *Batch) PrefetchChain(ctx context.Context, cfgs []Config) error {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// EvaluateContext evaluates one configuration, reusing the runner from
// previous evaluations when the flow matches.
func (b *Batch) EvaluateContext(ctx context.Context, cfg Config) (*Report, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if b.runner == nil || !b.runner.Matches(cfg.FlowMLMin) {
		r, err := cosim.NewRunner(cfg.FlowMLMin, cfg.InletTempC)
		if err != nil {
			return nil, fmt.Errorf("core: co-simulation: %w", err)
		}
		b.runner = r
	}
	return s.evaluateWith(ctx, b.runner.RunContext)
}
