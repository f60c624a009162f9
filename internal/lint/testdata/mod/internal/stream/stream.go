// Serving-path fixture for ctxpropagate: internal/stream sessions step
// transient solves on behalf of HTTP clients, so the cancellation
// discipline applies here exactly as in internal/sim.
package stream

import (
	"context"

	"fixture/internal/pdn"
	"fixture/internal/thermal"
)

// bad exercises the transient sibling pairs.
func bad() error {
	if _, err := thermal.SolveSchedule(&thermal.Problem{}); err != nil { // want ctxpropagate "thermal.SolveScheduleContext"
		return err
	}
	if _, err := pdn.SolveTransient(&pdn.Problem{}); err != nil { // want ctxpropagate "pdn.SolveTransientContext"
		return err
	}
	ctx := context.Background() // want ctxpropagate "context.Background"
	_ = ctx
	return nil
}

// good threads the context into the *Context variants.
func good(ctx context.Context) error {
	if _, err := thermal.SolveScheduleContext(ctx, &thermal.Problem{}); err != nil {
		return err
	}
	if _, err := pdn.SolveTransientContext(ctx, &pdn.Problem{}); err != nil {
		return err
	}
	return nil
}

// detached shows the annotated escape hatch for session-scoped roots.
func detached() context.Context {
	//lint:ignore ctxpropagate session lifetimes detach from requests by design
	return context.Background()
}
