package main

import (
	"math"
	"math/rand/v2"

	"bright/internal/core"
	"bright/internal/sim"
	"bright/internal/stream"
	"bright/internal/workload"
)

// The benchmark's inputs are a pure function of the workload seed. The
// seed only rotates and shuffles the inputs: configurations come from a
// rotated Kronecker sequence, so any prefix of a run's requests covers
// the whole range evenly whatever the seed, and the median of a short
// run does not depend on which corner of the domain the seed happened
// to favour.

// domain is the configuration range the generated requests span: valid
// configs only, on which the co-simulation converges within its
// iteration budget.
var domain = [6][2]float64{
	{300, 1000}, // FlowMLMin
	{20, 40},    // InletTempC
	{0.9, 1.1},  // SupplyVoltage
	{0.5, 1.0},  // ChipLoad
	{1.0, 2.0},  // ManifoldK
	{0.4, 0.7},  // PumpEfficiency
}

// kronecker holds one dimension-wise irrational step per config field
// (fractional parts of square roots of primes) and the seed's rotation.
type kronecker struct {
	step, offset [6]float64
}

func newKronecker(rng *rand.Rand) kronecker {
	primes := [6]float64{2, 3, 5, 7, 11, 13}
	var k kronecker
	for d, p := range primes {
		s := math.Sqrt(p)
		k.step[d] = s - math.Floor(s)
		k.offset[d] = rng.Float64()
	}
	return k
}

// at returns the k-th point of the sequence in the unit cube.
func (q kronecker) at(k int) [6]float64 {
	var u [6]float64
	for d := range u {
		v := q.offset[d] + float64(k)*q.step[d]
		u[d] = v - math.Floor(v)
	}
	return u
}

// pair returns the k-th point of an antithetic sequence: even k walk
// the sequence, odd k mirror the point before them through the cube's
// centre. A run that completes only a few operations still sees
// inputs balanced around the middle of the domain, so the work per
// operation does not swing with the seed.
func (q kronecker) pair(k int) [6]float64 {
	u := q.at(k / 2)
	if k%2 == 1 {
		for d := range u {
			u[d] = 1 - u[d]
		}
	}
	return u
}

func lerp(r [2]float64, u float64) float64 { return r[0] + u*(r[1]-r[0]) }

func configAt(u [6]float64) core.Config {
	return core.Config{
		FlowMLMin:      lerp(domain[0], u[0]),
		InletTempC:     lerp(domain[1], u[1]),
		SupplyVoltage:  lerp(domain[2], u[2]),
		ChipLoad:       lerp(domain[3], u[3]),
		ManifoldK:      lerp(domain[4], u[4]),
		PumpEfficiency: lerp(domain[5], u[5]),
	}
}

// Sweep conditions: a design scan around the nominal operating point,
// narrow enough that the work in one operation does not swing with the
// seed (evaluate-cold covers the whole domain).
var (
	sweepFlow  = [2]float64{550, 800}
	sweepInlet = [2]float64{24, 32}
	sweepLoad  = [2]float64{0.8, 1.0}
)

// Sweep shape: one long chain that the engine's default 16-point
// segment bound splits (a fine supply-voltage scan at one hydrodynamic
// condition) beside short chains (a coarse load scan at two others).
const (
	longChainPoints  = 17
	shortChains      = 2
	shortChainPoints = 3
	voltageStep      = 0.006
)

// Twin sessions: each advance steps this many frames, few enough that
// a run holds several thousand advances for the tail's windows.
const twinSteps = 2

// hotBackends is the number of backends behind evaluate-hot's
// coordinator; its working set holds one config per backend, small
// enough to fit any LRU, primed during set-up.
const hotBackends = 2

// generator derives every workload's inputs from one seed.
type generator struct {
	seed  uint64
	cold  kronecker
	sweep kronecker
	hot   kronecker
	twin  kronecker
}

func newGenerator(seed uint64) *generator {
	rng := rand.New(rand.NewPCG(seed, 0x6272696768742d62))
	return &generator{
		seed:  seed,
		cold:  newKronecker(rng),
		sweep: newKronecker(rng),
		hot:   newKronecker(rng),
		twin:  newKronecker(rng),
	}
}

// coldConfig is the k-th evaluate-cold request: distinct for every k,
// so every request misses the cache.
func (g *generator) coldConfig(k int) core.Config { return configAt(g.cold.at(k)) }

// sweepOp is the k-th sweep-chained operation: two jobs submitted
// together, a 17-point voltage scan at one (flow, inlet) condition and
// a 3-point load scan at two further conditions. The values are fresh
// for every k, so no point is ever a cache hit.
func (g *generator) sweepOp(k int) [2]sim.SweepSpec {
	u := g.sweep.pair(k)
	base := core.Config{
		FlowMLMin:      lerp(sweepFlow, u[0]),
		InletTempC:     lerp(sweepInlet, u[1]),
		SupplyVoltage:  1,
		ChipLoad:       lerp(sweepLoad, u[3]),
		ManifoldK:      lerp(domain[4], u[4]),
		PumpEfficiency: lerp(domain[5], u[5]),
	}
	long := sim.SweepSpec{
		Base:           &base,
		SupplyVoltages: make([]float64, longChainPoints),
	}
	v0 := lerp([2]float64{0.92, 0.94}, u[2])
	for i := range long.SupplyVoltages {
		long.SupplyVoltages[i] = v0 + voltageStep*float64(i)
	}
	shortBase := base
	shortBase.SupplyVoltage = lerp([2]float64{0.95, 1.05}, u[2])
	short := sim.SweepSpec{
		Base:       &shortBase,
		FlowsMLMin: make([]float64, shortChains),
		ChipLoads:  make([]float64, shortChainPoints),
	}
	for i := range short.FlowsMLMin {
		short.FlowsMLMin[i] = base.FlowMLMin - 150 + 300*float64(i)
	}
	for i := range short.ChipLoads {
		short.ChipLoads[i] = base.ChipLoad - 0.1*float64(i)
	}
	return [2]sim.SweepSpec{long, short}
}

// hotSet is the evaluate-hot working set: for each backend, the seed's
// first config the coordinator routes to it, so every seed spreads the
// requests evenly over the backends (two configs drawn blindly land on
// one backend half the time, and the run then measures a different
// stack).
func (g *generator) hotSet() []core.Config {
	names := backendNames(hotBackends)
	set := make([]core.Config, hotBackends)
	for k, found := 0, 0; found < len(set); k++ {
		cfg := configAt(g.hot.at(k))
		if i := ringOwner(names, cfg.CanonicalKey()); set[i] == (core.Config{}) {
			set[i] = cfg
			found++
		}
	}
	return set
}

// hotPicker is client c's request stream over the working set.
func (g *generator) hotPicker(c int) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed, 0x686f74+uint64(c)))
}

// twinSession is the manual session client c drives, with the
// utilization pushed into it at set-up.
func (g *generator) twinSession(c int) (stream.Spec, workload.Utilization) {
	u := g.twin.pair(c)
	on, off := true, false
	spec := stream.Spec{
		FlowMLMin:     lerp([2]float64{400, 900}, u[0]),
		InletTempC:    lerp([2]float64{22, 35}, u[1]),
		SupplyVoltage: lerp([2]float64{0.95, 1.05}, u[2]),
		MaxFrames:     100000,
		PDN:           &on,
		Auto:          &off,
	}
	return spec, workload.Utilization{Default: lerp([2]float64{0.5, 1.0}, u[3])}
}

// twinConfig is the steady-state config matching a twin session, the
// input the traced run replays through the solver layers.
func twinConfig(spec stream.Spec) core.Config {
	cfg := core.DefaultConfig()
	cfg.FlowMLMin, cfg.InletTempC, cfg.SupplyVoltage = spec.FlowMLMin, spec.InletTempC, spec.SupplyVoltage
	return cfg
}
