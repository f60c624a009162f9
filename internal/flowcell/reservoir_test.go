package flowcell

import (
	"fmt"
	"math"
	"testing"

	"bright/internal/num"
	"bright/internal/units"
)

// DischargeRK4 integrates the same constant-voltage discharge with a
// fourth-order Runge-Kutta scheme on the species state instead of the
// forward-Euler stepping of DischargeConstantVoltage. The two must
// agree as dt shrinks; it is the tests' cross-check of the
// integrator-independent physics. dtChunk is the reporting interval;
// each chunk is integrated with 4 internal RK4 stages.
func (r *Reservoir) DischargeRK4(a *Array, voltage, dtChunk, socCutoff float64, maxChunks int) (*DischargeResult, error) {
	if dtChunk <= 0 || maxChunks <= 0 {
		return nil, fmt.Errorf("flowcell: invalid RK4 discharge stepping")
	}
	if socCutoff <= 0 || socCutoff >= 1 {
		return nil, fmt.Errorf("flowcell: SOC cutoff %g out of (0,1)", socCutoff)
	}
	work := *a
	nEl := work.Cell.Anode.Couple.N
	res := &DischargeResult{}
	var charge, energy float64
	currentOf := func(state [4]float64) (float64, error) {
		rr := *r
		rr.AnodeOx, rr.AnodeRed, rr.CathodeOx, rr.CathodeRed = state[0], state[1], state[2], state[3]
		rr.applyTo(&work)
		op, err := work.CurrentAtVoltage(voltage)
		if err != nil {
			return 0, err
		}
		return op.Current, nil
	}
	deriv := func(t float64, y, dydt []float64) {
		i, err := currentOf([4]float64{y[0], y[1], y[2], y[3]})
		if err != nil {
			i = 0 // depleted: discharge stalls
		}
		dmol := i / (float64(nEl) * units.Faraday) / r.Volume
		dydt[0] = +dmol // anode Ox produced
		dydt[1] = -dmol // anode Red consumed
		dydt[2] = -dmol // cathode Ox consumed
		dydt[3] = +dmol // cathode Red produced
	}
	state := []float64{r.AnodeOx, r.AnodeRed, r.CathodeOx, r.CathodeRed}
	for chunk := 0; chunk < maxChunks; chunk++ {
		r.AnodeOx, r.AnodeRed, r.CathodeOx, r.CathodeRed = state[0], state[1], state[2], state[3]
		soc := r.StateOfCharge()
		if soc <= socCutoff {
			break
		}
		i, err := currentOf([4]float64{state[0], state[1], state[2], state[3]})
		if err != nil || i <= 0 {
			break
		}
		ocv := 0.0
		r.applyTo(&work)
		if ocv, err = work.Cell.OpenCircuitVoltage(); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, DischargePoint{
			TimeS: float64(chunk) * dtChunk, SOC: soc, CurrentA: i,
			PowerW: i * voltage, OCV: ocv,
		})
		t0 := float64(chunk) * dtChunk
		next, err := num.RK4(deriv, state, t0, t0+dtChunk, 4)
		if err != nil {
			return nil, err
		}
		// Trapezoidal charge accounting over the chunk.
		iNext, errNext := currentOf([4]float64{next[0], next[1], next[2], next[3]})
		if errNext != nil {
			iNext = 0
		}
		charge += 0.5 * (i + iNext) * dtChunk
		energy += 0.5 * (i + iNext) * dtChunk * voltage
		state = next
		res.DurationS = t0 + dtChunk
	}
	r.AnodeOx, r.AnodeRed, r.CathodeOx, r.CathodeRed = state[0], state[1], state[2], state[3]
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("%w: no dischargeable state at %g V", ErrDepleted, voltage)
	}
	res.CapacityAh = charge / 3600
	res.EnergyWh = energy / 3600
	res.EnergyDensityWhPerL = res.EnergyWh / (2 * r.Volume * 1000)
	res.CutoffSOC = r.StateOfCharge()
	return res, nil
}

func testReservoir(t *testing.T, volume float64) (*Array, *Reservoir) {
	t.Helper()
	a := Power7Array()
	r, err := NewReservoir(a, volume)
	if err != nil {
		t.Fatal(err)
	}
	return a, r
}

func TestReservoirInitialState(t *testing.T) {
	_, r := testReservoir(t, 1e-4) // 100 ml per side
	// Table II: fully charged 2000:1.
	if soc := r.StateOfCharge(); soc < 0.999 {
		t.Fatalf("fresh SOC %g", soc)
	}
	// Theoretical capacity: F * 2000 mol/m3 * 1e-4 m3 / 3600 ~ 5.36 Ah.
	capAh := r.TheoreticalCapacityAh(1)
	if math.Abs(capAh-5.36) > 0.05 {
		t.Fatalf("theoretical capacity %g Ah", capAh)
	}
}

func TestNewReservoirValidation(t *testing.T) {
	a := Power7Array()
	if _, err := NewReservoir(a, 0); err == nil {
		t.Fatal("zero volume accepted")
	}
	bad := *a
	bad.NChannels = 0
	if _, err := NewReservoir(&bad, 1e-4); err == nil {
		t.Fatal("invalid array accepted")
	}
}

func TestDischargeConservesCharge(t *testing.T) {
	a, r := testReservoir(t, 2e-5) // 20 ml per side: short discharge
	res, err := r.DischargeConstantVoltage(a, 1.0, 5.0, 0.1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Delivered charge cannot exceed the initial theoretical capacity.
	initialAh := 96485.33212 * 2000 * 2e-5 / 3600
	if res.CapacityAh > initialAh {
		t.Fatalf("delivered %g Ah exceeds theoretical %g Ah", res.CapacityAh, initialAh)
	}
	// But a healthy discharge extracts most of it (down to 10% SOC).
	if res.CapacityAh < 0.5*initialAh {
		t.Fatalf("delivered %g Ah too little of %g Ah", res.CapacityAh, initialAh)
	}
	// Charge bookkeeping: SOC fell to near the cutoff.
	if res.CutoffSOC > 0.2 {
		t.Fatalf("terminated at SOC %g, expected near cutoff", res.CutoffSOC)
	}
	// Energy ~ capacity * ~1 V at the terminal.
	whExpected := res.CapacityAh * 1.0
	if math.Abs(res.EnergyWh-whExpected) > 0.02*whExpected {
		t.Fatalf("energy %g Wh vs V*Q %g Wh", res.EnergyWh, whExpected)
	}
}

func TestDischargeCurrentSags(t *testing.T) {
	a, r := testReservoir(t, 2e-5)
	res, err := r.DischargeConstantVoltage(a, 1.0, 5.0, 0.1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 10 {
		t.Fatalf("too few samples: %d", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	// At constant terminal voltage, current and OCV sag as the
	// reservoir discharges.
	if last.CurrentA >= first.CurrentA {
		t.Fatalf("current did not sag: %g -> %g", first.CurrentA, last.CurrentA)
	}
	if last.OCV >= first.OCV {
		t.Fatalf("OCV did not sag: %g -> %g", first.OCV, last.OCV)
	}
	// SOC is monotone decreasing.
	for k := 1; k < len(res.Points); k++ {
		if res.Points[k].SOC >= res.Points[k-1].SOC {
			t.Fatalf("SOC not decreasing at %d", k)
		}
	}
	// Fresh reservoir starts at the Fig. 7 operating point.
	if math.Abs(first.CurrentA-6.1) > 0.7 {
		t.Fatalf("initial current %g A far from the Fig. 7 point", first.CurrentA)
	}
}

func TestEnergyDensityPlausible(t *testing.T) {
	a, r := testReservoir(t, 2e-5)
	res, err := r.DischargeConstantVoltage(a, 1.0, 5.0, 0.1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Vanadium systems deliver ~15-35 Wh/L of total electrolyte at
	// practical depths of discharge; at 2 M and a 1.0 V terminal we
	// land toward the lower-middle of that band.
	if res.EnergyDensityWhPerL < 8 || res.EnergyDensityWhPerL > 40 {
		t.Fatalf("energy density %g Wh/L outside vanadium band", res.EnergyDensityWhPerL)
	}
}

func TestDischargeValidation(t *testing.T) {
	a, r := testReservoir(t, 1e-5)
	if _, err := r.DischargeConstantVoltage(a, 1.0, 0, 0.1, 10); err == nil {
		t.Fatal("zero dt accepted")
	}
	if _, err := r.DischargeConstantVoltage(a, 1.0, 1, 0.1, 0); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := r.DischargeConstantVoltage(a, 1.0, 1, 1.5, 10); err == nil {
		t.Fatal("bad cutoff accepted")
	}
	// A voltage above OCV cannot discharge.
	if _, err := r.DischargeConstantVoltage(a, 2.0, 1, 0.1, 10); err == nil {
		t.Fatal("super-OCV discharge accepted")
	}
}

func TestDischargeDoesNotMutateArray(t *testing.T) {
	a, r := testReservoir(t, 1e-5)
	before := a.Cell.Anode
	if _, err := r.DischargeConstantVoltage(a, 1.0, 10, 0.2, 10000); err != nil {
		t.Fatal(err)
	}
	if a.Cell.Anode != before {
		t.Fatal("discharge mutated the caller's array")
	}
}

func TestDischargeRK4MatchesEuler(t *testing.T) {
	aE, rE := testReservoir(t, 2e-5)
	euler, err := rE.DischargeConstantVoltage(aE, 1.0, 2.0, 0.2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	aR, rR := testReservoir(t, 2e-5)
	rk, err := rR.DischargeRK4(aR, 1.0, 20.0, 0.2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Independent integrators, same physics: capacities within 2%.
	if d := math.Abs(rk.CapacityAh-euler.CapacityAh) / euler.CapacityAh; d > 0.02 {
		t.Fatalf("RK4 %.4f Ah vs Euler %.4f Ah (%.1f%%)", rk.CapacityAh, euler.CapacityAh, 100*d)
	}
	if d := math.Abs(rk.EnergyWh-euler.EnergyWh) / euler.EnergyWh; d > 0.02 {
		t.Fatalf("RK4 %.4f Wh vs Euler %.4f Wh", rk.EnergyWh, euler.EnergyWh)
	}
	// RK4 with 10x coarser reporting still resolves the sag.
	if len(rk.Points) < 10 {
		t.Fatalf("RK4 points %d", len(rk.Points))
	}
}

func TestDischargeRK4Validation(t *testing.T) {
	a, r := testReservoir(t, 1e-5)
	if _, err := r.DischargeRK4(a, 1.0, 0, 0.1, 10); err == nil {
		t.Fatal("zero chunk accepted")
	}
	if _, err := r.DischargeRK4(a, 1.0, 1, 2, 10); err == nil {
		t.Fatal("bad cutoff accepted")
	}
	if _, err := r.DischargeRK4(a, 2.0, 1, 0.1, 10); err == nil {
		t.Fatal("super-OCV voltage accepted")
	}
}
