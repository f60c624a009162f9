package flowcell

import (
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

func TestKjeangCellGeometry(t *testing.T) {
	c := KjeangCell(60)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Electrode area = height x length = 150um x 33mm.
	approx(t, c.GeometricElectrodeArea(), 150e-6*33e-3, 1e-12, "electrode area")
	approx(t, c.StreamWidth(), 1e-3, 1e-12, "stream half-width")
	// Mean velocity: 2 streams x 60 uL/min over the 2mm x 150um section.
	wantV := 2 * units.ULPerMinToM3PerS(60) / (2e-3 * 150e-6)
	approx(t, c.MeanVelocity(), wantV, 1e-12, "mean velocity")
	// Shear develops across the 150 um etch depth (Hele-Shaw).
	approx(t, c.shearGap(), 150e-6, 1e-12, "shear gap")
}

func TestPower7CellGeometry(t *testing.T) {
	a := Power7Array()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	c := a.Cell
	approx(t, c.GeometricElectrodeArea(), 400e-6*22e-3, 1e-12, "electrode area")
	// 88 channels, total 676 ml/min -> per-channel velocity ~1.6 m/s
	// (the paper rounds to 1.4 m/s).
	v := c.MeanVelocity()
	if v < 1.3 || v > 1.8 {
		t.Fatalf("mean velocity %g outside Table II ballpark", v)
	}
	// Shear develops across the 200 um gap.
	approx(t, c.shearGap(), 200e-6, 1e-12, "shear gap")
	approx(t, a.TotalFlowRate(), units.MLPerMinToM3PerS(676), 1e-9, "total flow")
	approx(t, a.Cell.GeometricElectrodeArea()*float64(a.NChannels), 88*400e-6*22e-3, 1e-12, "array area")
}

func TestCellOCV(t *testing.T) {
	// Kjeang cell: Nernst OCV ~1.43 V at Table I inlet state.
	ocv, err := KjeangCell(60).OpenCircuitVoltage()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ocv, 1.433, 0.005, "Kjeang OCV")
	// Power7 array: ~1.65 V (the Fig. 7 intercept).
	ocv7, err := Power7Array().Cell.OpenCircuitVoltage()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ocv7, 1.648, 0.01, "Table II OCV")
}

func TestValidationRejects(t *testing.T) {
	mutations := []func(*Cell){
		func(c *Cell) { c.Channel.Width = 0 },
		func(c *Cell) { c.StreamFlowRate = 0 },
		func(c *Cell) { c.Temperature = -1 },
		func(c *Cell) { c.ContactASR = -1 },
		func(c *Cell) { c.AreaEnhancement = 0.5 },
		func(c *Cell) { c.Anode.COxInlet = 0 },
		func(c *Cell) { c.Cathode.CRedInlet = -3 },
		func(c *Cell) { c.Anode.Couple.Alpha = 0 },
		func(c *Cell) { c.Electrolyte.ConductivityRef = 0 },
	}
	for k, mutate := range mutations {
		c := KjeangCell(60)
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", k)
		}
	}
}

func TestLimitingCurrentScalesWithFlowCubeRoot(t *testing.T) {
	iL1 := KjeangCell(2.5).LimitingCurrent()
	iL2 := KjeangCell(300).LimitingCurrent()
	// Leveque: iL ~ Q^(1/3); 120x flow -> 4.93x current.
	approx(t, iL2/iL1, math.Cbrt(300/2.5), 0.02, "Q^(1/3) limiting current")
}

func TestCathodeLimitsKjeangCell(t *testing.T) {
	// With Table I data the cathode (D=1.3e-10, COx=992) has a slightly
	// lower limiting current than the anode (D=1.7e-10, CRed=920).
	c := KjeangCell(60)
	a := c.halfState(c.Anode).LimitingCurrentDensity(0) // oxidation
	k := c.halfState(c.Cathode).LimitingCurrentDensity(1)
	if k >= a {
		t.Fatalf("expected cathode to limit: anode %g, cathode %g", a, k)
	}
}

func TestCrossoverNegligible(t *testing.T) {
	// The membraneless design premise: reactant crossover reaching the
	// opposite electrode is negligible at every paper condition.
	for _, q := range KjeangFlowRatesULMin {
		c := KjeangCell(q)
		if x := c.CrossoverCurrent(); x > 1e-4*c.LimitingCurrent() {
			t.Errorf("Kjeang %g uL/min: crossover %g A not negligible", q, x)
		}
	}
	p := Power7Array().Cell
	if x := p.CrossoverCurrent(); x > 1e-4*p.LimitingCurrent() {
		t.Errorf("Power7: crossover %g A not negligible", x)
	}
}

func TestOhmicASR(t *testing.T) {
	c := KjeangCell(60)
	// Ionic path = 2 mm gap at sigma(25C) ~ 39.7 S/m, plus 2.5 ohm.cm2
	// contact.
	sigma := c.Electrolyte.Conductivity(c.Temperature)
	approx(t, c.OhmicASR(), 2e-3/sigma+2.5e-4, 1e-12, "ASR decomposition")
	// Hotter electrolyte conducts better -> lower ASR.
	hot := *c
	hot.Temperature = 320
	if hot.OhmicASR() >= c.OhmicASR() {
		t.Fatal("ASR must fall with temperature")
	}
}

func TestHeatDissipation(t *testing.T) {
	c := KjeangCell(60)
	op, err := c.VoltageAtCurrent(0.5 * c.LimitingCurrent())
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.HeatDissipation(op.Current, op.Voltage)
	if err != nil {
		t.Fatal(err)
	}
	// Heat = I*(OCV-V) > 0 and complements electrical power: total
	// chemical power = I*OCV.
	if q <= 0 {
		t.Fatalf("heat %g must be positive under load", q)
	}
	approx(t, q+op.Power, op.Current*op.OpenCircuit, 1e-9, "energy balance")
	// Open circuit: no heat.
	q0, err := c.HeatDissipation(0, op.OpenCircuit)
	if err != nil || q0 != 0 {
		t.Fatalf("open-circuit heat %g err %v", q0, err)
	}
}

func TestKmTemperatureSensitivity(t *testing.T) {
	// km must increase with temperature via D(T) — the transport half
	// of the paper's hot-operation gain.
	c := KjeangCell(60)
	d1 := c.Anode.Couple.DRed(300)
	d2 := c.Anode.Couple.DRed(310)
	r := c.KmAvg(d2) / c.KmAvg(d1)
	approx(t, r, math.Pow(d2/d1, 2.0/3.0), 1e-9, "km ~ D^(2/3)")
	if r <= 1.1 {
		t.Fatalf("10 K should boost km by >10%%, got %g", r)
	}
}
