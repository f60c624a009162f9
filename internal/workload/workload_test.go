package workload

import (
	"encoding/json"
	"math"
	"testing"

	"bright/internal/floorplan"
	"bright/internal/mesh"
)

// At returns the utilization at the given time, honoring the trace's
// wrap-vs-clamp semantics (see Trace). The tests read traces with it;
// production steps phases by index.
func (t *Trace) At(time float64) Utilization {
	k := t.PhaseIndexAt(time)
	if k < 0 {
		return Utilization{}
	}
	return t.Phases[k].Util
}

func approx(t *testing.T, got, want, rel float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > rel*math.Abs(want) {
		t.Errorf("%s: got %g want %g (rel tol %g)", msg, got, want, rel)
	}
}

func TestUtilizationPrecedence(t *testing.T) {
	u := Utilization{
		ByName:  map[string]float64{"CORE0": 1},
		ByKind:  map[floorplan.UnitKind]float64{floorplan.Core: 0.5},
		Default: 0.1,
	}
	f := floorplan.Power7()
	var core0, core1, l3 floorplan.Unit
	for _, unit := range f.Units {
		switch unit.Name {
		case "CORE0":
			core0 = unit
		case "CORE1":
			core1 = unit
		case "L3_0":
			l3 = unit
		}
	}
	if u.Of(core0) != 1 {
		t.Fatal("name precedence")
	}
	if u.Of(core1) != 0.5 {
		t.Fatal("kind precedence")
	}
	if u.Of(l3) != 0.1 {
		t.Fatal("default fallback")
	}
}

func TestUtilizationValidate(t *testing.T) {
	if err := (Utilization{Default: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Utilization{Default: 1.5}).Validate(); err == nil {
		t.Fatal("default >1 accepted")
	}
	if err := (Utilization{ByName: map[string]float64{"X": -0.1}}).Validate(); err == nil {
		t.Fatal("negative by-name accepted")
	}
	if err := (Utilization{ByKind: map[floorplan.UnitKind]float64{floorplan.Core: 2}}).Validate(); err == nil {
		t.Fatal("by-kind >1 accepted")
	}
}

func TestTraceAtWrapsPeriodically(t *testing.T) {
	tr := Burst(1.0, 0.25)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	approx(t, tr.TotalDuration(), 1.0, 1e-12, "period")
	// Inside the burst.
	if tr.At(0.1).Default != 1 {
		t.Fatal("burst phase")
	}
	// Inside the idle tail.
	if tr.At(0.9).Default != 0 {
		t.Fatal("idle phase")
	}
	// Wrapped.
	if tr.At(2.1).Default != 1 || tr.At(-0.9).Default != 1 {
		t.Fatal("wrapping")
	}
}

// Phase intervals are half-open [start, end): sampling exactly at a
// boundary returns the phase that begins there, and exactly one period
// wraps to phase 0.
func TestTraceAtExactBoundaries(t *testing.T) {
	tr := &Trace{Phases: []Phase{
		{Duration: 0.25, Util: Utilization{Default: 1}},
		{Duration: 0.75, Util: Utilization{Default: 0}},
	}}
	if got := tr.PhaseIndexAt(0); got != 0 {
		t.Fatalf("At(0): phase %d, want 0", got)
	}
	// Exactly at the internal boundary: the idle phase starts here.
	if got := tr.PhaseIndexAt(0.25); got != 1 {
		t.Fatalf("At(0.25): phase %d, want 1 (half-open intervals)", got)
	}
	// Exactly one period: wraps to the start of the next period.
	if got := tr.PhaseIndexAt(1.0); got != 0 {
		t.Fatalf("At(period): phase %d, want 0 (periodic wrap)", got)
	}
	if got := tr.PhaseIndexAt(1.25); got != 1 {
		t.Fatalf("At(period+0.25): phase %d, want 1", got)
	}
	// Boundary classification must be exact for times built by summing
	// the same prefix durations the trace holds, even when the
	// durations are not exactly representable.
	odd := &Trace{Phases: []Phase{
		{Duration: 0.1, Util: Utilization{Default: 0.1}},
		{Duration: 0.1, Util: Utilization{Default: 0.2}},
		{Duration: 0.1, Util: Utilization{Default: 0.3}},
	}}
	edge := odd.Phases[0].Duration + odd.Phases[1].Duration
	if got := odd.PhaseIndexAt(edge); got != 2 {
		t.Fatalf("At(sum of first two durations): phase %d, want 2", got)
	}
}

func TestTraceClampSemantics(t *testing.T) {
	tr := &Trace{
		Clamp: true,
		Phases: []Phase{
			{Duration: 0.5, Util: Utilization{Default: 0.3}},
			{Duration: 0.5, Util: Utilization{Default: 1}},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.At(0.25).Default; got != 0.3 {
		t.Fatalf("At(0.25) = %g, want 0.3", got)
	}
	// At and past the end: the last phase holds forever (a DVFS step
	// must not restart when the session outruns the trace).
	for _, tm := range []float64{1.0, 1.5, 100} {
		if got := tr.At(tm).Default; got != 1 {
			t.Fatalf("clamp At(%g) = %g, want 1", tm, got)
		}
	}
	// Negative times clamp to the first phase.
	if got := tr.At(-3).Default; got != 0.3 {
		t.Fatalf("clamp At(-3) = %g, want 0.3", got)
	}
	// The same trace with wrap restarts instead.
	wrap := &Trace{Phases: tr.Phases}
	if got := wrap.At(1.25).Default; got != 0.3 {
		t.Fatalf("wrap At(1.25) = %g, want 0.3", got)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := &Trace{
		Clamp: true,
		Phases: []Phase{
			{Duration: 0.5, Util: Utilization{
				ByName:  map[string]float64{"CORE0": 1},
				ByKind:  map[floorplan.UnitKind]float64{floorplan.Core: 0.5},
				Default: 0.1,
			}},
		},
	}
	blob, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Clamp || len(back.Phases) != 1 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	ph := back.Phases[0]
	if ph.Duration != 0.5 || ph.Util.Default != 0.1 ||
		ph.Util.ByName["CORE0"] != 1 || ph.Util.ByKind[floorplan.Core] != 0.5 {
		t.Fatalf("round trip lost values: %+v", ph)
	}
}

func TestTraceValidate(t *testing.T) {
	if err := (&Trace{}).Validate(); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := &Trace{Phases: []Phase{{Duration: 0}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-duration phase accepted")
	}
}

func TestPowerModelEndpoints(t *testing.T) {
	f := floorplan.Power7()
	pm := Power7PowerModel()
	full := pm.TotalPower(f, Utilization{Default: 1})
	idle := pm.TotalPower(f, Utilization{Default: 0})
	// Full equals the Fig. 9 full-load budget.
	approx(t, full, f.TotalPower(floorplan.Power7FullLoad()), 1e-9, "full-load endpoint")
	// Idle is a meaningful but smaller floor.
	if idle <= 0.2*full || idle >= 0.6*full {
		t.Fatalf("idle %g vs full %g outside leakage expectation", idle, full)
	}
	// Linear in utilization.
	half := pm.TotalPower(f, Utilization{Default: 0.5})
	approx(t, half, 0.5*(full+idle), 1e-9, "linearity")
}

func TestDensityFieldMatchesAnalyticTotal(t *testing.T) {
	f := floorplan.Power7()
	pm := Power7PowerModel()
	g := mesh.NewUniformGrid2D(f.Width, f.Height, 60, 48)
	for _, u := range []Utilization{
		{Default: 1},
		{Default: 0.3},
		{ByKind: map[floorplan.UnitKind]float64{floorplan.Core: 1}, Default: 0},
	} {
		field := pm.DensityField(f, g, u)
		approx(t, field.Integrate(), pm.TotalPower(f, u), 1e-9, "rasterized power")
	}
}

func TestCoreMigrationTrace(t *testing.T) {
	f := floorplan.Power7()
	tr := CoreMigration(f, 0.01, 0.2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Phases) != 8 {
		t.Fatalf("expected 8 phases (one per core), got %d", len(tr.Phases))
	}
	// Each phase heats exactly one core fully.
	for k, p := range tr.Phases {
		hot := 0
		for name, v := range p.Util.ByName {
			if v == 1 {
				hot++
				if name == "" {
					t.Fatal("unnamed hot unit")
				}
			}
		}
		if hot != 1 {
			t.Fatalf("phase %d: %d hot cores", k, hot)
		}
	}
	// Migration actually moves the hotspot: consecutive phases differ.
	if tr.Phases[0].Util.ByName["CORE0"] != 1 || tr.Phases[1].Util.ByName["CORE0"] == 1 {
		t.Fatal("hotspot did not move")
	}
}

func TestSteadyTrace(t *testing.T) {
	tr := Steady(0.7, 5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.At(3).Default != 0.7 {
		t.Fatal("steady value")
	}
	if tr.TotalDuration() != 5 {
		t.Fatal("duration")
	}
}

func TestBurstDutyClamping(t *testing.T) {
	if tr := Burst(1, 0); tr.Phases[0].Duration != 0.5 {
		t.Fatal("zero duty should default to 0.5")
	}
	if tr := Burst(1, 1.2); tr.Phases[1].Duration <= 0 {
		t.Fatal("duty >= 1 should clamp, leaving a positive idle phase")
	}
}
