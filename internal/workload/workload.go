// Package workload synthesizes time-varying chip activity for the
// transient studies: utilization traces per floorplan unit, a power
// model mapping utilization to power density, and generators for the
// standard scenario shapes (steady, bursty, core migration). The paper
// motivates the technology with energy-proportional computing; these
// traces let the thermal and electrochemical models be exercised under
// activity that actually varies.
package workload

import (
	"fmt"
	"math"

	"bright/internal/floorplan"
	"bright/internal/mesh"
)

// Utilization describes the activity of the chip at one instant, in
// [0, 1] per unit. Lookup precedence: by unit name, then by unit kind,
// then Default. The JSON form is the wire format of the streaming
// session API (internal/stream), where clients push utilization
// updates into a live transient co-simulation.
type Utilization struct {
	ByName  map[string]float64             `json:"by_name,omitempty"`
	ByKind  map[floorplan.UnitKind]float64 `json:"by_kind,omitempty"`
	Default float64                        `json:"default"`
}

// Of returns the utilization of a unit.
func (u Utilization) Of(unit floorplan.Unit) float64 {
	if v, ok := u.ByName[unit.Name]; ok {
		return v
	}
	if v, ok := u.ByKind[unit.Kind]; ok {
		return v
	}
	return u.Default
}

// Validate checks all utilizations are within [0, 1].
func (u Utilization) Validate() error {
	check := func(v float64, where string) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("workload: utilization %g out of [0,1] (%s)", v, where)
		}
		return nil
	}
	if err := check(u.Default, "default"); err != nil {
		return err
	}
	for k, v := range u.ByName {
		if err := check(v, k); err != nil {
			return err
		}
	}
	for k, v := range u.ByKind {
		if err := check(v, k.String()); err != nil {
			return err
		}
	}
	return nil
}

// Phase is one segment of a trace.
type Phase struct {
	// Duration in seconds (> 0).
	Duration float64 `json:"duration_s"`
	// Util is the chip activity during the phase.
	Util Utilization `json:"util"`
}

// Trace is a piecewise-constant utilization schedule. Each phase
// occupies the half-open interval [start, start+Duration) — sampling
// exactly at a boundary returns the phase that begins there. Times
// outside [0, TotalDuration()) wrap around periodically by default
// (At(TotalDuration()) is At(0)); with Clamp set they clamp to the
// first/last phase instead.
type Trace struct {
	Phases []Phase `json:"phases"`
	// Clamp switches the out-of-range semantics from periodic wrapping
	// to clamping: times past the end hold the last phase forever and
	// negative times hold the first. Wrap (the default) is what a
	// periodic Burst trace driving an arbitrarily long session needs;
	// clamp is what a one-shot step scenario (DVFS step, wake-up) needs
	// so the trace does not silently restart when a long-lived session
	// outruns it.
	Clamp bool `json:"clamp,omitempty"`
}

// Validate reports whether the trace is usable.
func (t *Trace) Validate() error {
	if len(t.Phases) == 0 {
		return fmt.Errorf("workload: empty trace")
	}
	for i, p := range t.Phases {
		if p.Duration <= 0 {
			return fmt.Errorf("workload: phase %d has nonpositive duration", i)
		}
		if err := p.Util.Validate(); err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
	}
	return nil
}

// TotalDuration returns one period of the trace (s).
func (t *Trace) TotalDuration() float64 {
	d := 0.0
	for _, p := range t.Phases {
		d += p.Duration
	}
	return d
}

// PhaseIndexAt returns the index of the phase active at the given time
// (-1 for an empty trace). Phase intervals are half-open: phase k spans
// [edge(k), edge(k+1)) where edge(k) is the cumulative duration of the
// phases before it, so a time landing exactly on a boundary belongs to
// the phase that starts there. Comparisons run against the cumulative
// edges (not repeated subtraction), so a caller that computes sample
// times by summing the same prefix durations gets exact boundary
// classification, free of accumulated float drift.
//
// Out-of-range times wrap periodically by default — time is reduced
// modulo TotalDuration(), so exactly one period maps to phase 0, the
// shape a periodic Burst trace needs when it drives a session for many
// periods. With Clamp set, times at or past TotalDuration() return the
// last phase and negative times the first.
func (t *Trace) PhaseIndexAt(time float64) int {
	n := len(t.Phases)
	if n == 0 {
		return -1
	}
	period := t.TotalDuration()
	if period <= 0 {
		return n - 1
	}
	if t.Clamp {
		if time < 0 {
			return 0
		}
		if time >= period {
			return n - 1
		}
	} else {
		time = math.Mod(time, period)
		if time < 0 {
			time += period
		}
	}
	edge := 0.0
	for k, p := range t.Phases {
		edge += p.Duration
		if time < edge {
			return k
		}
	}
	// Float round-off in the Mod can leave time a hair at or above the
	// final edge; that instant belongs to the last phase.
	return n - 1
}

// PowerModel maps utilization to per-kind power density: density =
// idle + util * (full - idle). Leakage (idle) keeps the floor realistic.
type PowerModel struct {
	Idle, Full floorplan.PowerMap
}

// Power7PowerModel returns the POWER7+ model: the paper's full-load
// densities with a 30% leakage floor on cores/logic and a 50% floor on
// the always-on caches (eDRAM refresh) and I/O.
func Power7PowerModel() PowerModel {
	full := floorplan.Power7FullLoad()
	idle := floorplan.PowerMap{}
	for k, v := range full {
		switch k {
		case floorplan.Core, floorplan.Logic:
			idle[k] = 0.3 * v
		default:
			idle[k] = 0.5 * v
		}
	}
	return PowerModel{Idle: idle, Full: full}
}

// DensityField rasterizes the instantaneous power map for the given
// utilization onto a grid.
func (pm PowerModel) DensityField(f *floorplan.Floorplan, g *mesh.Grid2D, u Utilization) *mesh.Field2D {
	field := mesh.NewField2D(g)
	for j := 0; j < g.NY(); j++ {
		for i := 0; i < g.NX(); i++ {
			cell := floorplan.Rect{
				X: g.X.Edges[i], Y: g.Y.Edges[j],
				W: g.X.Widths[i], H: g.Y.Widths[j],
			}
			acc := 0.0
			for _, unit := range f.Units {
				ov := cell.Overlap(unit.Rect)
				if ov <= 0 {
					continue
				}
				util := u.Of(unit)
				d := pm.Idle[unit.Kind] + util*(pm.Full[unit.Kind]-pm.Idle[unit.Kind])
				acc += d * ov
			}
			field.Set(i, j, acc/cell.Area())
		}
	}
	return field
}

// TotalPower integrates the instantaneous map analytically (W).
func (pm PowerModel) TotalPower(f *floorplan.Floorplan, u Utilization) float64 {
	s := 0.0
	for _, unit := range f.Units {
		util := u.Of(unit)
		d := pm.Idle[unit.Kind] + util*(pm.Full[unit.Kind]-pm.Idle[unit.Kind])
		s += d * unit.Rect.Area()
	}
	return s
}

// --- Generators -------------------------------------------------------

// Steady returns a single-phase trace at uniform utilization.
func Steady(util, duration float64) *Trace {
	return &Trace{Phases: []Phase{{
		Duration: duration,
		Util:     Utilization{Default: util},
	}}}
}

// Burst alternates full activity (duty fraction of the period) with
// idle: the classic race-to-idle shape.
func Burst(period, duty float64) *Trace {
	if duty <= 0 {
		duty = 0.5
	}
	if duty >= 1 {
		duty = 0.999
	}
	return &Trace{Phases: []Phase{
		{Duration: duty * period, Util: Utilization{Default: 1}},
		{Duration: (1 - duty) * period, Util: Utilization{Default: 0}},
	}}
}

// CoreMigration cycles full activity around the cores (one hot core at
// a time, dwell seconds each) while the rest of the chip idles at the
// background level — the thermal-management pattern that spreads
// hotspots.
func CoreMigration(f *floorplan.Floorplan, dwell, background float64) *Trace {
	var tr Trace
	for _, u := range f.Units {
		if u.Kind != floorplan.Core {
			continue
		}
		tr.Phases = append(tr.Phases, Phase{
			Duration: dwell,
			Util: Utilization{
				ByName:  map[string]float64{u.Name: 1},
				Default: background,
			},
		})
	}
	return &tr
}
