package cosim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bright/internal/mesh"
	"bright/internal/obs"
	"bright/internal/thermal"
	"bright/internal/units"
)

// TestRunnerMatchesDirectSolve is the thermal response's differential
// test: the state a Runner reads from its unit responses must match a
// direct Krylov solve of the whole network at the converged load and
// coolant heat, over seeded configs across the domain. The named
// configs also pin their fixed-point iteration counts, which the switch
// from per-iteration solves to unit responses left unchanged. A case
// with warmFromC first runs its runner at that inlet temperature: the
// runner serves the new inlet from the same responses, and the shifted
// warm seed takes no more outer iterations than a cold run.
func TestRunnerMatchesDirectSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-simulations in -short mode")
	}
	type tc struct {
		cfg       Config
		iters     int     // 0: not pinned
		warmFromC float64 // 0: cold runner
	}
	cases := []tc{
		{Config{TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 1, ChipLoad: 1}, 6, 0},
		{Config{TotalFlowMLMin: 48, InletTempC: 27, TerminalVoltage: 1, ChipLoad: 1}, 7, 0},
		{Config{TotalFlowMLMin: 676, InletTempC: 37, TerminalVoltage: 1, ChipLoad: 0.6}, 6, 0},
		{Config{TotalFlowMLMin: 200, InletTempC: 27, TerminalVoltage: 0.8, ChipLoad: 1.3}, 7, 0},
		{Config{TotalFlowMLMin: 1200, InletTempC: 60, TerminalVoltage: 1, ChipLoad: 1}, 6, 0},
		{cfg: Config{TotalFlowMLMin: 676, InletTempC: 37, TerminalVoltage: 1, ChipLoad: 1}, warmFromC: 27},
	}
	rng := rand.New(rand.NewSource(15))
	for k := 0; k < 3; k++ {
		cases = append(cases, tc{cfg: Config{
			TotalFlowMLMin:  48 * math.Pow(25, rng.Float64()), // 48..1200 ml/min, log-uniform
			InletTempC:      15 + 45*rng.Float64(),
			TerminalVoltage: 0.7 + 0.5*rng.Float64(),
			ChipLoad:        0.2 + 1.1*rng.Float64(),
		}})
	}
	for _, c := range cases {
		assembleC := c.cfg.InletTempC
		if c.warmFromC != 0 {
			assembleC = c.warmFromC
		}
		r, err := NewRunner(c.cfg.TotalFlowMLMin, assembleC)
		if err != nil {
			t.Fatal(err)
		}
		coldIters := 0
		if c.warmFromC != 0 {
			prev := c.cfg
			prev.InletTempC = c.warmFromC
			if _, err := r.RunContext(context.Background(), prev); err != nil {
				t.Fatalf("%+v: %v", prev, err)
			}
			cold, err := RunContext(context.Background(), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			coldIters = cold.Iterations
		}
		res, err := r.RunContext(context.Background(), c.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		if c.iters != 0 && res.Iterations != c.iters {
			t.Errorf("%+v: %d fixed-point iterations, want %d", c.cfg, res.Iterations, c.iters)
		}
		if coldIters != 0 && res.Iterations > coldIters {
			t.Errorf("%+v after %g C: %d fixed-point iterations, a cold run takes %d",
				c.cfg, c.warmFromC, res.Iterations, coldIters)
		}
		heat := res.History[len(res.History)-1].HeatW
		tp := thermal.Power7Problem(c.cfg.TotalFlowMLMin, units.CtoK(c.cfg.InletTempC), 0)
		ses, err := thermal.NewSession(tp)
		if err != nil {
			t.Fatal(err)
		}
		power := &mesh.Field2D{Grid: tp.Power.Grid, Data: make([]float64, len(tp.Power.Data))}
		for i, v := range tp.Power.Data {
			power.Data[i] = v * c.cfg.ChipLoad
		}
		direct, err := ses.Solve(power, heat)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			name      string
			got, want float64
		}{
			{"PeakT", res.Thermal.PeakT, direct.PeakT},
			{"OutletT", res.Thermal.OutletT, direct.OutletT},
			{"MeanFluidT", res.Thermal.MeanFluidT, direct.MeanFluidT},
		} {
			if d := math.Abs(q.got - q.want); d > 1e-5 {
				t.Errorf("%+v: %s %.9f K from the response vs %.9f K direct (|diff| %.2g K)",
					c.cfg, q.name, q.got, q.want, d)
			}
		}
		if d := math.Abs(res.Thermal.TotalPower - direct.TotalPower); d > 1e-9*direct.TotalPower {
			t.Errorf("%+v: TotalPower %.12g vs %.12g", c.cfg, res.Thermal.TotalPower, direct.TotalPower)
		}
	}
}

// TestRunnerKrylovBudget: a Runner's first run pays exactly the two
// unit-response solves; later runs at any inlet, load or voltage pay
// none.
func TestRunnerKrylovBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-simulations in -short mode")
	}
	bicg := obs.Default.Counter("bright_krylov_solves_total", "", obs.L("method", "bicgstab"))
	cold := obs.Default.Counter("bright_thermal_session_solves_total", "", obs.L("warm", "false"))
	r, err := NewRunner(676, 27)
	if err != nil {
		t.Fatal(err)
	}
	for k, cfg := range []Config{
		{TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 1, ChipLoad: 1},
		{TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 0.8, ChipLoad: 0.4},
		{TotalFlowMLMin: 676, InletTempC: 27, TerminalVoltage: 1.2, ChipLoad: 1.3},
		{TotalFlowMLMin: 676, InletTempC: 37, TerminalVoltage: 1, ChipLoad: 1},
	} {
		b0, c0 := bicg.Value(), cold.Value()
		if _, err := r.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if k == 0 {
			want = 2
		}
		if got := bicg.Value() - b0; got != want {
			t.Errorf("run %d: %d BiCGSTAB solves, want %d", k, got, want)
		}
		if got := cold.Value() - c0; got != want {
			t.Errorf("run %d: %d cold session solves counted, want %d", k, got, want)
		}
	}
}
