// Package core integrates the paper's proposal into one system model:
// an MPSoC floorplan with an on-die microfluidic redox flow-cell array
// that simultaneously powers the cache rails (through VRMs and a power
// grid) and cools the whole die (through the compact thermal model),
// with electro-thermal coupling. It is the programmatic embodiment of
// the paper's Fig. 1 and the engine behind the case-study experiments.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"bright/internal/cosim"
	"bright/internal/floorplan"
	"bright/internal/flowcell"
	"bright/internal/hydro"
	"bright/internal/pdn"
	"bright/internal/thermal"
	"bright/internal/units"
)

// Config parameterizes the integrated POWER7+ case study.
type Config struct {
	// FlowMLMin is the total electrolyte flow in ml/min (Table II: 676).
	FlowMLMin float64
	// InletTempC is the coolant inlet temperature in C (27 nominal).
	InletTempC float64
	// SupplyVoltage is the cache rail voltage (V), 1.0 in the paper.
	SupplyVoltage float64
	// ChipLoad scales the full-load power map (1 = full load).
	ChipLoad float64
	// ManifoldK is the hydraulic minor-loss coefficient of the inlet/
	// outlet headers.
	ManifoldK float64
	// PumpEfficiency of the electrolyte pump (paper: 0.5).
	PumpEfficiency float64
}

// DefaultConfig returns the paper's nominal operating point.
func DefaultConfig() Config {
	return Config{
		FlowMLMin:      676,
		InletTempC:     27,
		SupplyVoltage:  1.0,
		ChipLoad:       1.0,
		ManifoldK:      1.5,
		PumpEfficiency: 0.5,
	}
}

// floatFields enumerates every float64 field of Config by name, in
// declaration order. CanonicalKey and the finiteness checks in Validate
// both iterate this list, and a reflection guard in the tests pins its
// length to the struct's field count so new fields cannot silently
// escape either.
func (c Config) floatFields() []struct {
	Name  string
	Value float64
} {
	return []struct {
		Name  string
		Value float64
	}{
		{"FlowMLMin", c.FlowMLMin},
		{"InletTempC", c.InletTempC},
		{"SupplyVoltage", c.SupplyVoltage},
		{"ChipLoad", c.ChipLoad},
		{"ManifoldK", c.ManifoldK},
		{"PumpEfficiency", c.PumpEfficiency},
	}
}

// keyTolerance is the absolute quantum CanonicalKey rounds every field
// to. It sits far below any solver tolerance in the stack (the co-sim
// converges to 0.01 K, the linear solvers to ~1e-10 relative), so
// configs that share a key are indistinguishable to the physics.
const keyTolerance = 1e-9

// keyField formats name=v with v quantized to keyTolerance (-0 as 0).
func keyField(name string, v float64) string {
	q := math.Round(v/keyTolerance) * keyTolerance
	if q == 0 {
		q = 0
	}
	return fmt.Sprintf("%s=%.9f", name, q)
}

// CanonicalKey returns a deterministic string key identifying the
// configuration up to solver tolerance: each field is quantized to
// keyTolerance before formatting, so configs that differ only below the
// tolerance map to the same key and may share one cache entry. The key
// is human-readable on purpose — it doubles as a cache-debugging aid.
//
// What sharing a key guarantees depends on the path that produced the
// answer:
//
//   - Cold evaluates (System.EvaluateContext, sim.DefaultSolver) are
//     bitwise reproducible: the same Config gives the same Report on
//     every call, at any GOMAXPROCS.
//   - The grid stage is path-independent: Report.Grid is a pure
//     function of (SupplyVoltage, ChipLoad), bitwise equal whether the
//     point was evaluated cold or inside a sweep chain.
//   - Chained answers (a Batch walking a sweep chain) match the cold
//     answer within the co-simulation's tolerance, not bitwise: the
//     Runner seeds each point's fixed point from the previous point's
//     converged cell temperature, so the iterate it stops on depends on
//     which neighbour was solved first. TestCanonicalKeyContract pins
//     the per-output tolerances.
//
// A cache keyed on CanonicalKey therefore serves whichever of these
// answers it stored first.
func (c Config) CanonicalKey() string {
	fields := c.floatFields()
	parts := make([]string, len(fields))
	for k, f := range fields {
		parts[k] = keyField(f.Name, f.Value)
	}
	key := parts[0]
	for _, p := range parts[1:] {
		key += "|" + p
	}
	return key
}

// ChainKey returns a deterministic string key identifying only the
// hydrodynamic operating condition — the flow rate, quantized exactly
// like CanonicalKey. Configs sharing a ChainKey share the thermal
// operator and its unit responses (cosim.Runner); the inlet temperature
// enters neither, so it does not split the key. Solving such configs
// back-to-back on one node skips every thermal solve after the first;
// sweep chaining and the cluster coordinator both partition work on
// this key to preserve that locality.
func (c Config) ChainKey() string {
	return keyField("FlowMLMin", c.FlowMLMin)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	for _, f := range c.floatFields() {
		if math.IsNaN(f.Value) {
			return fmt.Errorf("core: %s is NaN", f.Name)
		}
		if math.IsInf(f.Value, 0) {
			return fmt.Errorf("core: %s is %g (must be finite)", f.Name, f.Value)
		}
	}
	if c.FlowMLMin <= 0 {
		return fmt.Errorf("core: nonpositive flow %g ml/min", c.FlowMLMin)
	}
	if c.SupplyVoltage <= 0 {
		return fmt.Errorf("core: nonpositive supply voltage %g", c.SupplyVoltage)
	}
	if c.InletTempC < 0 || c.InletTempC > 90 {
		return fmt.Errorf("core: inlet %g C outside liquid window", c.InletTempC)
	}
	if c.ChipLoad < 0 {
		return fmt.Errorf("core: negative chip load")
	}
	if c.ManifoldK < 0 {
		return fmt.Errorf("core: negative manifold K")
	}
	if c.PumpEfficiency <= 0 || c.PumpEfficiency > 1 {
		return fmt.Errorf("core: pump efficiency %g out of (0,1]", c.PumpEfficiency)
	}
	return nil
}

// System is the assembled integrated model.
type System struct {
	Config    Config
	Floorplan *floorplan.Floorplan
	Array     *flowcell.Array
	VRM       pdn.VRM
}

// power7Grid is the process-wide POWER7+ power-grid response. The grid
// matrix depends only on the floorplan geometry, sheet resistance and
// via sites, and the load only on the cache mask scaled by ChipLoad /
// SupplyVoltage — none of it on anything else in Config — so one CG
// solve, paid by the first evaluation in the process, answers the grid
// stage of every evaluation after it. The response is immutable and
// read concurrently by every engine worker.
var power7Grid = sync.OnceValues(func() (*pdn.Response, error) {
	p, _, err := pdn.Power7Problem()
	if err != nil {
		return nil, err
	}
	return pdn.NewResponse(p)
})

// NewSystem builds the integrated POWER7+ system at the given config.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := floorplan.Power7()
	if err := f.Validate(0); err != nil {
		return nil, err
	}
	array := flowcell.Power7ArrayAt(cfg.FlowMLMin, units.CtoK(cfg.InletTempC))
	if err := array.Validate(); err != nil {
		return nil, err
	}
	return &System{
		Config:    cfg,
		Floorplan: f,
		Array:     array,
		VRM:       pdn.DefaultVRM(),
	}, nil
}

// Report is the full evaluated state of the integrated system.
type Report struct {
	Config Config
	// CoSim is the converged electro-thermal state; CoSim.Operating is
	// the array's electrical point at the supply voltage.
	CoSim *cosim.Result
	// CacheDemandW and CacheDemandA are the cache rail demand from the
	// floorplan at 1 W/cm2.
	CacheDemandW, CacheDemandA float64
	// DeliveredW is the electric power available after VRM conversion.
	DeliveredW float64
	// PowersCaches reports whether the array covers the cache demand
	// through the VRM.
	PowersCaches bool
	// Grid is the Fig. 8 power-grid solution.
	Grid *pdn.Solution
	// Thermal is the Fig. 9 thermal state (from the coupled run).
	Thermal *thermal.Solution
	// PeakTempC is the coupled peak die temperature.
	PeakTempC float64
	// Hydraulics is the pressure/pump operating point.
	Hydraulics hydro.Report
	// NetElectricalGainW = delivered electric power - pumping power:
	// the paper's "flow cells generate more energy than is spent in
	// liquid pumping" claim.
	NetElectricalGainW float64
}

// Evaluate runs the full pipeline: electro-thermal co-simulation, power
// grid solve and hydraulic analysis.
func (s *System) Evaluate() (*Report, error) {
	return s.EvaluateContext(context.Background())
}

// EvaluateContext is Evaluate with cancellation: the context is threaded
// into the co-simulation loop (checked every outer iteration) and
// checked between the pipeline stages, so a canceled context aborts the
// evaluation within one co-sim iteration or one stage.
func (s *System) EvaluateContext(ctx context.Context) (*Report, error) {
	return s.evaluateWith(ctx, cosim.RunContext)
}

// evaluateWith is the shared pipeline behind System.EvaluateContext and
// Batch: the co-simulation stage is pluggable so a Batch can route it
// through a cached cosim.Runner instead of a one-shot run.
func (s *System) evaluateWith(ctx context.Context,
	runCosim func(context.Context, cosim.Config) (*cosim.Result, error)) (*Report, error) {
	cfg := s.Config
	co, err := runCosim(ctx, cosim.Config{
		TotalFlowMLMin:  cfg.FlowMLMin,
		InletTempC:      cfg.InletTempC,
		TerminalVoltage: cfg.SupplyVoltage,
		ChipLoad:        cfg.ChipLoad,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: co-simulation: %w", err)
	}
	rep := &Report{
		Config:    cfg,
		CoSim:     co,
		Thermal:   co.Thermal,
		PeakTempC: units.KtoC(co.Thermal.PeakT),
	}
	rep.CacheDemandW = units.WPerCM2ToWPerM2(1.0) * s.Floorplan.CacheArea() * cfg.ChipLoad
	rep.CacheDemandA = rep.CacheDemandW / cfg.SupplyVoltage
	// The array feeds the rail through the VRM.
	rep.DeliveredW = co.Operating.Power * s.VRM.Efficiency
	rep.PowersCaches = rep.DeliveredW >= rep.CacheDemandW

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	grid, err := power7Grid()
	if err != nil {
		return nil, fmt.Errorf("core: power grid: %w", err)
	}
	// The cache load density is 1 W/cm2 at the rail voltage, so the
	// current scales as ChipLoad / SupplyVoltage against the response's
	// load map.
	rep.Grid = grid.Solution(cfg.ChipLoad*grid.Supply()/cfg.SupplyVoltage, cfg.SupplyVoltage)

	net := s.Array.HydraulicNetwork(cfg.ManifoldK, cfg.PumpEfficiency)
	hyd, err := net.Evaluate(units.MLPerMinToM3PerS(cfg.FlowMLMin))
	if err != nil {
		return nil, fmt.Errorf("core: hydraulics: %w", err)
	}
	rep.Hydraulics = hyd
	rep.NetElectricalGainW = rep.DeliveredW - hyd.PumpPower
	return rep, nil
}

// Summary renders the headline numbers as a human-readable block.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		`integrated microfluidic power & cooling — %s
  array:   %.2f A at %.2f V  ->  %.2f W (%.2f W after VRM)
  caches:  need %.2f W (%.2f A at %.2f V)  ->  powered: %v
  grid:    min cache voltage %.4f V (supply %.2f V)
  thermal: peak %.1f C (inlet %.1f C), coolant out %.1f C
  pump:    %.2f W at dp %.3f bar (%.3f bar/cm)  ->  net gain %.2f W`,
		fmtCondition(r.Config),
		r.CoSim.Operating.Current, r.Config.SupplyVoltage, r.CoSim.Operating.Power, r.DeliveredW,
		r.CacheDemandW, r.CacheDemandA, r.Config.SupplyVoltage, r.PowersCaches,
		r.Grid.MinVCache, r.Config.SupplyVoltage,
		r.PeakTempC, r.Config.InletTempC, units.KtoC(r.Thermal.OutletT),
		r.Hydraulics.PumpPower, units.PaToBar(r.Hydraulics.TotalDrop),
		units.PaToBar(r.Hydraulics.PressureGradient)/100, r.NetElectricalGainW)
}

func fmtCondition(c Config) string {
	return fmt.Sprintf("%.0f ml/min, %.0f C inlet, load %.0f%%", c.FlowMLMin, c.InletTempC, 100*c.ChipLoad)
}
