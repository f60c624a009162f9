package echem

import (
	"errors"
	"math"
	"testing"

	"bright/internal/units"
)

func approx(t *testing.T, got, want, rel float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > rel*math.Abs(want) {
		t.Errorf("%s: got %g want %g (rel tol %g)", msg, got, want, rel)
	}
}

func TestStandardOCV(t *testing.T) {
	// Paper: U0 = E0_pos - E0_neg = 1.25 V (with the unrounded -0.26 and
	// +0.99 it quotes in the prose; Table I gives -0.255/0.991 -> 1.246).
	u0 := VanadiumPositive().E0 - VanadiumNegative().E0
	approx(t, u0, 1.246, 0.005, "standard OCV")
}

func TestThermalVoltage(t *testing.T) {
	approx(t, ThermalVoltage(units.StandardTemperature), 0.025693, 1e-3, "RT/F at 25C")
}

func TestNernstTableI(t *testing.T) {
	// Validation-cell inlet state (Table I): anode Ox 80 / Red 920,
	// cathode Ox 992 / Red 8.
	eNeg, err := NernstPotential(VanadiumNegative(), units.StandardTemperature, 80, 920)
	if err != nil {
		t.Fatal(err)
	}
	// E = -0.255 + 0.0257*ln(80/920) = -0.3177 V
	approx(t, eNeg, -0.3177, 0.005, "anode Nernst")
	ePos, err := NernstPotential(VanadiumPositive(), units.StandardTemperature, 992, 8)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ePos, 1.1149, 0.005, "cathode Nernst")
	// Full-cell OCV ~ 1.43 V.
	ocv, err := OpenCircuitVoltage(
		HalfCellState{Couple: VanadiumPositive(), COxBulk: 992, CRedBulk: 8, Temperature: units.StandardTemperature, KmOx: 1, KmRed: 1},
		HalfCellState{Couple: VanadiumNegative(), COxBulk: 80, CRedBulk: 920, Temperature: units.StandardTemperature, KmOx: 1, KmRed: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ocv, 1.4326, 0.005, "full-cell OCV")
}

func TestNernstTableII(t *testing.T) {
	// POWER7+ array state (Table II): both electrodes 2000:1, T=300 K.
	// OCV = (1.0 + vt*ln 2000) - (-0.255 - vt*ln 2000) ~ 1.648 V, the
	// ~1.6 V intercept visible in the paper's Fig. 7.
	ocv, err := OpenCircuitVoltage(
		HalfCellState{Couple: VanadiumPositiveTableII(), COxBulk: 2000, CRedBulk: 1, Temperature: 300, KmOx: 1, KmRed: 1},
		HalfCellState{Couple: VanadiumNegativeTableII(), COxBulk: 1, CRedBulk: 2000, Temperature: 300, KmOx: 1, KmRed: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ocv, 1.648, 0.01, "Table II OCV")
}

func TestNernstErrors(t *testing.T) {
	if _, err := NernstPotential(VanadiumNegative(), 0, 1, 1); err == nil {
		t.Fatal("zero temperature must error")
	}
	if _, err := NernstPotential(VanadiumNegative(), 300, -1, 1); err == nil {
		t.Fatal("negative concentration must error")
	}
	if _, err := OpenCircuitVoltage(HalfCellState{Couple: VanadiumPositive(), Temperature: 300},
		HalfCellState{Couple: VanadiumNegative(), COxBulk: 1, CRedBulk: 1, Temperature: 300}); err == nil {
		t.Fatal("bad positive state must error")
	}
}

func TestArrheniusScaling(t *testing.T) {
	c := VanadiumNegative()
	// Monotone increase with T.
	if !(c.K0(310) > c.K0(300) && c.K0(300) > c.K0(290)) {
		t.Fatal("k0 must increase with temperature")
	}
	if !(c.DOx(310) > c.DOx(300)) {
		t.Fatal("D must increase with temperature")
	}
	// Identity at the reference temperature.
	approx(t, c.K0(c.TRef), c.K0Ref, 1e-12, "k0 at TRef")
	approx(t, c.DRed(c.TRef), c.DRedRef, 1e-12, "D at TRef")
	// Known ratio: Ea=22 kJ/mol from 300 to 310 K gives exp(22000/8.314*(1/300-1/310)) ~ 1.329.
	r := c.K0(310) / c.K0(300)
	want := math.Exp(22e3 / units.GasConstant * (1.0/300 - 1.0/310))
	approx(t, r, want, 1e-9, "Arrhenius ratio")
	if want < 1.25 || want > 1.45 {
		t.Fatalf("10 K kinetics boost %g outside the 25-45%% band that underlies the paper's 23%% claim", want)
	}
}

func validHalf() HalfCellState {
	return HalfCellState{
		Couple:      VanadiumPositiveTableII(),
		COxBulk:     2000,
		CRedBulk:    1,
		Temperature: 300,
		KmOx:        4e-5,
		KmRed:       4e-5,
	}
}

func TestExchangeCurrentDensity(t *testing.T) {
	h := validHalf()
	// i0 = F k0 COx^0.5 CRed^0.5 = 96485*4.67e-5*sqrt(2000*1) ~ 201.5 A/m2.
	approx(t, h.ExchangeCurrentDensity(), 96485.33212*4.67e-5*math.Sqrt(2000), 1e-6, "i0")
	// i0 grows with temperature (Arrhenius k0).
	h2 := h
	h2.Temperature = 320
	if h2.ExchangeCurrentDensity() <= h.ExchangeCurrentDensity() {
		t.Fatal("i0 must increase with T")
	}
}

func TestLimitingCurrent(t *testing.T) {
	h := validHalf()
	// Reduction consumes Ox: iL = F km COx = 96485*4e-5*2000 ~ 7719 A/m2.
	approx(t, h.LimitingCurrentDensity(Reduction), 96485.33212*4e-5*2000, 1e-9, "iL red")
	// Oxidation consumes Red (only 1 mol/m3 here): tiny limit.
	approx(t, h.LimitingCurrentDensity(Oxidation), 96485.33212*4e-5*1, 1e-9, "iL ox")
}

func TestSurfaceConcentrations(t *testing.T) {
	h := validHalf()
	iL := h.LimitingCurrentDensity(Reduction)
	cOx, cRed, err := h.SurfaceConcentrations(iL/2, Reduction)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, cOx, 1000, 1e-9, "half the limit leaves half the bulk")
	if cRed <= h.CRedBulk {
		t.Fatal("product species must accumulate at the surface")
	}
	// Beyond the limit: error.
	if _, _, err := h.SurfaceConcentrations(1.01*iL, Reduction); !errors.Is(err, ErrMassTransportLimited) {
		t.Fatalf("expected ErrMassTransportLimited, got %v", err)
	}
	if _, _, err := h.SurfaceConcentrations(-1, Reduction); err == nil {
		t.Fatal("negative magnitude must error")
	}
}

func TestOverpotentialSigns(t *testing.T) {
	h := validHalf()
	iL := h.LimitingCurrentDensity(Reduction)
	etaRed, err := h.Overpotential(iL/4, Reduction)
	if err != nil {
		t.Fatal(err)
	}
	if etaRed >= 0 {
		t.Fatalf("reduction overpotential must be negative, got %g", etaRed)
	}
	// Oxidation on the anode-style state.
	a := HalfCellState{
		Couple: VanadiumNegativeTableII(), COxBulk: 1, CRedBulk: 2000,
		Temperature: 300, KmOx: 4e-5, KmRed: 4e-5,
	}
	etaOx, err := a.Overpotential(a.LimitingCurrentDensity(Oxidation)/4, Oxidation)
	if err != nil {
		t.Fatal(err)
	}
	if etaOx <= 0 {
		t.Fatalf("oxidation overpotential must be positive, got %g", etaOx)
	}
	// Zero current: zero overpotential.
	if eta, err := h.Overpotential(0, Reduction); err != nil || eta != 0 {
		t.Fatalf("eta(0) = %g, err %v", eta, err)
	}
}

func TestOverpotentialConsistentWithButlerVolmer(t *testing.T) {
	h := validHalf()
	i := h.LimitingCurrentDensity(Reduction) / 3
	eta, err := h.Overpotential(i, Reduction)
	if err != nil {
		t.Fatal(err)
	}
	cOxS, cRedS, err := h.SurfaceConcentrations(i, Reduction)
	if err != nil {
		t.Fatal(err)
	}
	back := h.CurrentDensity(eta, cOxS, cRedS)
	approx(t, back, -i, 1e-8, "BV round trip (reduction current is negative)")
}

func TestOverpotentialMonotoneInCurrent(t *testing.T) {
	h := validHalf()
	iL := h.LimitingCurrentDensity(Reduction)
	prev := 0.0
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		eta, err := h.Overpotential(frac*iL, Reduction)
		if err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		if eta >= prev {
			t.Fatalf("overpotential magnitude must grow with current: eta(%g)=%g prev=%g", frac, eta, prev)
		}
		prev = eta
	}
}

func TestOverpotentialDivergesNearLimit(t *testing.T) {
	h := validHalf()
	iL := h.LimitingCurrentDensity(Reduction)
	etaHalf, _ := h.Overpotential(0.5*iL, Reduction)
	etaNear, err := h.Overpotential(0.999*iL, Reduction)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(etaNear) < 2*math.Abs(etaHalf) {
		t.Fatalf("near-limit overpotential %g should dwarf mid-range %g", etaNear, etaHalf)
	}
}

// OvervoltageBreakdown decomposes the total overpotential at current i
// into charge-transfer and mass-transfer parts (paper eqs. (7)-(8)): the
// mass-transfer part is the overpotential that would remain if kinetics
// were infinitely fast (Nernstian shift from surface vs bulk
// concentrations); the charge-transfer part is the remainder.
type OvervoltageBreakdown struct {
	Total          float64 // V, signed
	ChargeTransfer float64 // V, signed
	MassTransfer   float64 // V, signed
}

// Breakdown computes the decomposition at current density i. Only the
// tests use it, to check the sign of each part of the production
// overpotential.
func (h HalfCellState) Breakdown(i float64, mode Mode) (OvervoltageBreakdown, error) {
	total, err := h.Overpotential(i, mode)
	if err != nil {
		return OvervoltageBreakdown{}, err
	}
	cOxS, cRedS, err := h.SurfaceConcentrations(i, mode)
	if err != nil {
		return OvervoltageBreakdown{}, err
	}
	// Nernstian surface shift: E(surface) - E(bulk).
	vt := ThermalVoltage(h.Temperature) / float64(h.Couple.N)
	mt := vt * math.Log((cOxS/h.COxBulk)*(h.CRedBulk/cRedS))
	return OvervoltageBreakdown{
		Total:          total,
		ChargeTransfer: total - mt,
		MassTransfer:   mt,
	}, nil
}

func TestBreakdownAdds(t *testing.T) {
	h := validHalf()
	i := 0.6 * h.LimitingCurrentDensity(Reduction)
	bd, err := h.Breakdown(i, Reduction)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, bd.ChargeTransfer+bd.MassTransfer, bd.Total, 1e-9, "parts sum to total")
	if bd.MassTransfer >= 0 {
		t.Fatalf("reduction mass-transfer overvoltage must be negative, got %g", bd.MassTransfer)
	}
	if bd.ChargeTransfer >= 0 {
		t.Fatalf("reduction charge-transfer overvoltage must be negative, got %g", bd.ChargeTransfer)
	}
}

func TestHotterElectrodeNeedsLessOverpotential(t *testing.T) {
	// The mechanism behind the paper's 23% hot-operation gain: at fixed
	// current, a hotter electrode (faster kinetics) needs less driving
	// overpotential.
	h := validHalf()
	i := 0.5 * h.LimitingCurrentDensity(Reduction)
	etaCold, err := h.Overpotential(i, Reduction)
	if err != nil {
		t.Fatal(err)
	}
	hot := h
	hot.Temperature = 310
	// The mass-transfer coefficient tracks the diffusion coefficient as
	// km ~ D^(2/3) (Leveque), which is how the flow-cell layer feeds the
	// temperature into the hydrodynamics.
	dRatio := hot.Couple.DOx(310) / hot.Couple.DOx(300)
	hot.KmOx *= math.Pow(dRatio, 2.0/3.0)
	hot.KmRed *= math.Pow(dRatio, 2.0/3.0)
	etaHot, err := hot.Overpotential(i, Reduction)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(etaHot) >= math.Abs(etaCold) {
		t.Fatalf("hot |eta| %g must be below cold |eta| %g", etaHot, etaCold)
	}
}

func TestValidateRejectsBadStates(t *testing.T) {
	good := validHalf()
	cases := []func(*HalfCellState){
		func(h *HalfCellState) { h.COxBulk = 0 },
		func(h *HalfCellState) { h.CRedBulk = -5 },
		func(h *HalfCellState) { h.Temperature = 0 },
		func(h *HalfCellState) { h.KmOx = 0 },
		func(h *HalfCellState) { h.KmRed = -1 },
		func(h *HalfCellState) { h.Couple.Alpha = 1.5 },
		func(h *HalfCellState) { h.Couple.N = 0 },
		func(h *HalfCellState) { h.Couple.K0Ref = 0 },
	}
	for k, mutate := range cases {
		h := good
		mutate(&h)
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", k)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good state rejected: %v", err)
	}
}

func TestElectrolyteProperties(t *testing.T) {
	e := VanadiumElectrolyte()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table I/II values at reference.
	approx(t, e.Density(300), 1260, 1e-12, "density")
	approx(t, e.Viscosity(300), 2.53e-3, 1e-9, "viscosity at TRef")
	// Viscosity decreases, conductivity increases with T.
	if e.Viscosity(320) >= e.Viscosity(300) {
		t.Fatal("viscosity must fall with T")
	}
	if e.Conductivity(320) <= e.Conductivity(300) {
		t.Fatal("conductivity must rise with T")
	}
	// Clamp far below reference stays positive.
	if e.Conductivity(100) <= 0 {
		t.Fatal("conductivity clamp failed")
	}
	bad := e
	bad.DensityRef = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid electrolyte accepted")
	}
}

func TestModeString(t *testing.T) {
	if Oxidation.String() != "oxidation" || Reduction.String() != "reduction" {
		t.Fatal("Mode.String")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should still format")
	}
}
